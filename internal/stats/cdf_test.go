package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3, 10})
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0},
		{1, 0.2},
		{2, 0.6},
		{2.5, 0.6},
		{3, 0.8},
		{10, 1},
		{100, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFEmptyAt(t *testing.T) {
	c := NewCDF(nil)
	if got := c.At(5); got != 0 {
		t.Errorf("empty CDF At = %v", got)
	}
	if c.Len() != 0 {
		t.Errorf("empty CDF Len = %d", c.Len())
	}
}

func TestCDFPercentiles(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1) // 1..100
	}
	c := NewCDF(samples)
	if got := c.Median(); got != 51 {
		t.Errorf("median = %v, want 51", got)
	}
	if got := c.Percentile(0.9); got != 91 {
		t.Errorf("p90 = %v, want 91", got)
	}
	if got := c.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := c.Percentile(1); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
}

func TestCDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("NewCDF mutated its input: %v", in)
	}
}

func TestCDFMinMaxMean(t *testing.T) {
	c := NewCDF([]float64{4, -2, 10})
	if c.Min() != -2 || c.Max() != 10 {
		t.Errorf("min/max = %v/%v", c.Min(), c.Max())
	}
}

func TestCDFCurveMonotone(t *testing.T) {
	r := NewRNG(1)
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = r.Float64() * 100
	}
	c := NewCDF(samples)
	pts := c.Curve(LinSpace(0, 100, 50))
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatalf("CDF curve decreased at %d", i)
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("CDF does not reach 1: %v", pts[len(pts)-1].Y)
	}
}

// Property: At is monotone nondecreasing and bounded by [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		var clean []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		c := NewCDF(clean)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		ya, yb := c.At(lo), c.At(hi)
		return ya >= 0 && yb <= 1 && ya <= yb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogSpace(t *testing.T) {
	xs := LogSpace(0, 2, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-9 {
			t.Errorf("LogSpace[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
}

func TestLinSpace(t *testing.T) {
	xs := LinSpace(0, 10, 6)
	if len(xs) != 6 || xs[0] != 0 || xs[5] != 10 || xs[1] != 2 {
		t.Errorf("LinSpace = %v", xs)
	}
}

func TestCoverageCurve(t *testing.T) {
	// counts: 5, 3, 2 → total 10; top-1 covers 0.5, top-2 0.8, top-3 1.0.
	curve := CoverageCurve([]int{3, 5, 2})
	want := []float64{0.5, 0.8, 1.0}
	for i := range want {
		if math.Abs(curve[i]-want[i]) > 1e-12 {
			t.Errorf("curve[%d] = %v, want %v", i, curve[i], want[i])
		}
	}
}

func TestItemsForCoverage(t *testing.T) {
	curve := []float64{0.5, 0.8, 1.0}
	if got := ItemsForCoverage(curve, 0.7); got != 2 {
		t.Errorf("ItemsForCoverage(0.7) = %d, want 2", got)
	}
	if got := ItemsForCoverage(curve, 0.5); got != 1 {
		t.Errorf("ItemsForCoverage(0.5) = %d, want 1", got)
	}
	if got := ItemsForCoverage(curve, 1.1); got != 3 {
		t.Errorf("ItemsForCoverage(1.1) = %d, want len", got)
	}
}

// Property: coverage curve is nondecreasing and ends at 1 for nonempty input.
func TestCoverageCurveProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, 0, len(raw))
		for _, v := range raw {
			counts = append(counts, int(v)+1)
		}
		curve := CoverageCurve(counts)
		if len(counts) == 0 {
			return len(curve) == 0
		}
		if !sort.Float64sAreSorted(curve) {
			return false
		}
		return math.Abs(curve[len(curve)-1]-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSharePairsAboveDiagonal(t *testing.T) {
	// Heavy sharing: one key with 100 certs, 9 keys with 1.
	counts := []int{100, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	pts := SharePairs(counts, 20)
	for _, p := range pts {
		if p.Y < p.X-1e-9 {
			t.Fatalf("share curve fell below y=x at %+v", p)
		}
	}
}

func TestTopN(t *testing.T) {
	counts := map[string]int{"a": 3, "b": 5, "c": 3, "d": 1}
	top := TopN(counts, 3)
	if len(top) != 3 || top[0].Label != "b" {
		t.Fatalf("TopN = %v", top)
	}
	// Ties broken lexicographically: a before c.
	if top[1].Label != "a" || top[2].Label != "c" {
		t.Errorf("tie-break wrong: %v", top)
	}
	if got := TopN(counts, 10); len(got) != 4 {
		t.Errorf("TopN larger than map returned %d items", len(got))
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("x")
	c.Add("x", 2)
	c.Inc("y")
	if c.Get("x") != 3 || c.Get("y") != 1 || c.Len() != 2 {
		t.Errorf("counter state wrong")
	}
	vals := c.Values()
	if len(vals) != 2 {
		t.Errorf("Values len = %d", len(vals))
	}
	top := c.Top(1)
	if len(top) != 1 || top[0].Label != "x" {
		t.Errorf("Top = %v", top)
	}
}

func TestFormatSeries(t *testing.T) {
	s := FormatSeries("fig", []Point{{1, 0.5}})
	if s != "# fig\n1\t0.5\n" {
		t.Errorf("FormatSeries = %q", s)
	}
}
