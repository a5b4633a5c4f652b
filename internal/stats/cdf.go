package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float64 samples.
// Build one with NewCDF; the sample slice is copied and sorted.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples. The input is not modified.
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len reports the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns the fraction of samples <= x. It returns 0 for an empty CDF.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	// SearchFloat64s returns the first index >= x; advance over equals.
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Percentile returns the value at quantile q in [0, 1] using
// nearest-rank interpolation. It panics on an empty CDF or q outside [0,1].
func (c *CDF) Percentile(q float64) float64 {
	if len(c.sorted) == 0 {
		panic("stats: percentile of empty CDF")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: percentile %v out of range", q))
	}
	if q == 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Floor(q * float64(len(c.sorted))))
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx]
}

// Median returns the 50th percentile.
func (c *CDF) Median() float64 { return c.Percentile(0.5) }

// Min returns the smallest sample. It panics on an empty CDF.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		panic("stats: min of empty CDF")
	}
	return c.sorted[0]
}

// Max returns the largest sample. It panics on an empty CDF.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		panic("stats: max of empty CDF")
	}
	return c.sorted[len(c.sorted)-1]
}

// Point is one (X, Y) sample of a rendered curve.
type Point struct {
	X, Y float64
}

// Curve renders the CDF as a series of points at the given x positions,
// in the same form the paper's figures plot (x = value, y = cumulative
// fraction).
func (c *CDF) Curve(xs []float64) []Point {
	pts := make([]Point, 0, len(xs))
	for _, x := range xs {
		pts = append(pts, Point{X: x, Y: c.At(x)})
	}
	return pts
}

// FormatSeries renders points as "x\ty" rows for terminal output.
func FormatSeries(name string, pts []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", name)
	for _, p := range pts {
		fmt.Fprintf(&b, "%g\t%g\n", p.X, p.Y)
	}
	return b.String()
}

// LogSpace returns n x-positions spaced logarithmically between 10^loExp and
// 10^hiExp inclusive, for plotting log-x CDFs like the paper's Figures 3 & 5.
func LogSpace(loExp, hiExp float64, n int) []float64 {
	if n < 2 {
		return []float64{math.Pow(10, loExp)}
	}
	xs := make([]float64, n)
	step := (hiExp - loExp) / float64(n-1)
	for i := range xs {
		xs[i] = math.Pow(10, loExp+float64(i)*step)
	}
	return xs
}

// LinSpace returns n x-positions spaced linearly between lo and hi inclusive.
func LinSpace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	xs := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
	}
	return xs
}

// CoverageCurve answers questions of the form "what fraction of certificates
// is covered by the top-k keys" (paper Figures 6 and 8 and §5.3). Input is
// the multiplicity of each distinct item (e.g. certificates per public key);
// the result is sorted descending so index k-1 holds the fraction of the
// total covered by the k most popular items.
func CoverageCurve(counts []int) []float64 {
	sorted := make([]int, len(counts))
	copy(sorted, counts)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	var total int
	for _, c := range sorted {
		total += c
	}
	out := make([]float64, len(sorted))
	var run int
	for i, c := range sorted {
		run += c
		if total > 0 {
			out[i] = float64(run) / float64(total)
		}
	}
	return out
}

// ItemsForCoverage returns the smallest k such that the top-k items cover at
// least the given fraction of the total, or len(curve) if never reached.
func ItemsForCoverage(curve []float64, fraction float64) int {
	for i, f := range curve {
		if f >= fraction {
			return i + 1
		}
	}
	return len(curve)
}

// SharePairs builds the paper's Figure 6: for each fraction x of distinct
// keys (sorted most-shared first), the fraction y of certificates they cover.
// A perfectly diverse population lies on y = x.
func SharePairs(counts []int, n int) []Point {
	curve := CoverageCurve(counts)
	if len(curve) == 0 {
		return nil
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n-1)
		idx := int(x * float64(len(curve)-1))
		pts = append(pts, Point{X: float64(idx+1) / float64(len(curve)), Y: curve[idx]})
	}
	return pts
}
