package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiverge(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// The child's stream must not replay the parent's.
	p := NewRNG(7)
	p.Uint64() // account for the draw Split consumed
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatalf("child stream mirrors parent at draw %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate = %v", frac)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(19)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Exponential(5)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.15 {
		t.Errorf("exponential mean = %v, want ~5", mean)
	}
}

func TestParetoMinimum(t *testing.T) {
	r := NewRNG(23)
	for i := 0; i < 1000; i++ {
		if v := r.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto below xm: %v", v)
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := NewRNG(31)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 36 {
		t.Errorf("shuffle changed elements: %v", s)
	}
}

func TestWeightedPickerProportions(t *testing.T) {
	p := NewWeightedPicker([]WeightedChoice[string]{
		{Item: "a", Weight: 1},
		{Item: "b", Weight: 3},
		{Item: "zero", Weight: 0},
	})
	if p.Len() != 2 {
		t.Fatalf("picker kept %d items, want 2 (zero-weight dropped)", p.Len())
	}
	r := NewRNG(37)
	counts := map[string]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[p.Pick(r)]++
	}
	if counts["zero"] != 0 {
		t.Error("picked a zero-weight item")
	}
	frac := float64(counts["b"]) / n
	if math.Abs(frac-0.75) > 0.01 {
		t.Errorf("weight-3 item picked %v of the time, want ~0.75", frac)
	}
}

func TestWeightedPickerPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty picker did not panic")
		}
	}()
	NewWeightedPicker[string](nil)
}

func TestZipfHeadHeavy(t *testing.T) {
	z := NewZipf(100, 1.2)
	r := NewRNG(41)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Draw(r)]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf rank 0 (%d) not heavier than rank 50 (%d)", counts[0], counts[50])
	}
}

// Property: Intn output is always within range for arbitrary positive n.
func TestIntnRangeProperty(t *testing.T) {
	r := NewRNG(43)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
