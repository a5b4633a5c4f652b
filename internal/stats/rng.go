// Package stats provides the deterministic randomness and descriptive
// statistics used throughout the reproduction: a seedable SplitMix64 RNG,
// weighted sampling, heavy-tailed distributions, CDFs, percentiles and
// coverage curves.
//
// Everything in this package is deterministic given a seed so that every
// experiment in the repository is exactly reproducible.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on SplitMix64.
// It is intentionally not crypto-grade: it exists so that simulations are
// reproducible across runs and platforms. The zero value is a valid generator
// seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent child generator from r. The child's stream is
// decorrelated from the parent's by mixing the parent's next output.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exponential returns a draw from an exponential distribution with the given
// mean. It panics if mean <= 0.
func (r *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exponential with non-positive mean")
	}
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return -mean * math.Log(u)
	}
}

// Pareto returns a draw from a Pareto distribution with minimum xm and shape
// alpha. Heavier tails come from smaller alpha.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return xm / math.Pow(u, 1/alpha)
	}
}

// Shuffle randomly permutes n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// WeightedChoice holds items with selection weights for WeightedPicker.
type WeightedChoice[T any] struct {
	Item   T
	Weight float64
}

// WeightedPicker samples items proportionally to their weights using a
// precomputed cumulative table (O(log n) per draw).
type WeightedPicker[T any] struct {
	items []T
	cum   []float64
	total float64
}

// NewWeightedPicker builds a picker from choices. Choices with non-positive
// weight are ignored. It panics if no choice has positive weight.
func NewWeightedPicker[T any](choices []WeightedChoice[T]) *WeightedPicker[T] {
	p := &WeightedPicker[T]{}
	for _, c := range choices {
		if c.Weight <= 0 {
			continue
		}
		p.total += c.Weight
		p.items = append(p.items, c.Item)
		p.cum = append(p.cum, p.total)
	}
	if len(p.items) == 0 {
		panic("stats: weighted picker with no positive weights")
	}
	return p
}

// Pick returns one item drawn proportionally to its weight.
func (p *WeightedPicker[T]) Pick(r *RNG) T {
	x := r.Float64() * p.total
	lo, hi := 0, len(p.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return p.items[lo]
}

// Len reports how many positive-weight items the picker holds.
func (p *WeightedPicker[T]) Len() int { return len(p.items) }

// Zipf draws integers in [0, n) with probability proportional to
// 1/(rank+1)^s, using a precomputed cumulative table.
type Zipf struct {
	picker *WeightedPicker[int]
}

// NewZipf constructs a Zipf sampler over n ranks with exponent s.
func NewZipf(n int, s float64) *Zipf {
	choices := make([]WeightedChoice[int], n)
	for i := 0; i < n; i++ {
		choices[i] = WeightedChoice[int]{Item: i, Weight: 1 / math.Pow(float64(i+1), s)}
	}
	return &Zipf{picker: NewWeightedPicker(choices)}
}

// Draw returns one rank from the Zipf distribution.
func (z *Zipf) Draw(r *RNG) int { return z.picker.Pick(r) }
