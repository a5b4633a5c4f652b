// Package obs is the repo's deterministic observability layer: a metric
// registry (atomic counters, gauges, fixed-bucket histograms) plus
// span tracing on an injected clock, with JSON renderings that are stable
// enough to golden-test.
//
// The design constraint is the same one the rest of the pipeline lives
// under (DESIGN.md "Concurrency model & determinism"): instrumentation must
// not perturb determinism, and the *numbers themselves* must be
// reproducible. Two rules follow:
//
//   - A counter is one atomic and addition commutes, so a metric's value
//     is independent of worker count and scheduling as long as the *events
//     being counted* are deterministic.
//   - Metrics whose event counts are inherently execution-dependent (shard
//     geometry, wall-clock durations) are registered as volatile; the
//     Stable() rendering excludes them, and that rendering is what golden
//     tests pin byte-for-byte at workers 1/4/16.
//
// Snapshot() renders every metric in sorted name order, so the document
// bytes are a pure function of the metric values.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// MetricsVersion identifies the JSON metrics-document schema emitted by
// Snapshot (and accepted by ValidateMetrics / cmd/benchjson -metrics).
const MetricsVersion = 1

// Option adjusts how a metric is registered.
type Option int

const (
	// Volatile marks a metric whose value legitimately depends on execution
	// (worker count, scheduling, wall clock). Volatile metrics still appear
	// in Snapshot() but are excluded from the Stable() rendering that the
	// determinism golden tests compare.
	Volatile Option = iota + 1
)

func isVolatile(opts []Option) bool {
	for _, o := range opts {
		if o == Volatile {
			return true
		}
	}
	return false
}

// Registry holds named metrics. Registration (the name → metric lookup) is
// mutex-guarded; the returned handles update lock-free, so the intended
// pattern is to resolve handles once and increment them in hot loops.
// A nil *Registry is a valid no-op sink for every method.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Nil registries return nil (a valid no-op counter).
func (r *Registry) Counter(name string, opts ...Option) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name, volatile: isVolatile(opts)}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string, opts ...Option) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name, volatile: isVolatile(opts)}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use with the given finite bucket upper bounds (inclusive,
// strictly increasing). Values above the last bound land in the overflow
// bucket. Re-registering an existing name returns the existing histogram
// regardless of bounds.
func (r *Registry) Histogram(name string, bounds []int64, opts ...Option) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{
			name:     name,
			volatile: isVolatile(opts),
			bounds:   append([]int64(nil), bounds...),
			buckets:  make([]atomic.Uint64, len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing counter, one atomic. A nil
// *Counter is a no-op.
type Counter struct {
	name     string
	volatile bool
	v        atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the count. Safe to call concurrently with increments; the
// result is then a momentary lower bound.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. A nil *Gauge is a no-op.
type Gauge struct {
	name     string
	volatile bool
	v        atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets, one atomic each. A nil
// *Histogram is a no-op.
type Histogram struct {
	name     string
	volatile bool
	bounds   []int64
	buckets  []atomic.Uint64 // len(bounds) finite buckets + 1 overflow
	count    atomic.Uint64
	sum      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Bucket is one histogram cell in the snapshot: the count of observations
// with value ≤ Le.
type Bucket struct {
	Le    int64  `json:"le"`
	Count uint64 `json:"count"`
}

// Metric is one rendered metric. Type is "counter", "gauge" or
// "histogram"; exactly the fields for that type are populated (pointers so
// zero values still render explicitly).
type Metric struct {
	Name     string `json:"name"`
	Type     string `json:"type"`
	Volatile bool   `json:"volatile,omitempty"`

	// Counter / gauge.
	Value *int64 `json:"value,omitempty"`

	// Histogram.
	Count    *uint64  `json:"count,omitempty"`
	Sum      *int64   `json:"sum,omitempty"`
	Buckets  []Bucket `json:"buckets,omitempty"`
	Overflow *uint64  `json:"overflow,omitempty"`
}

// Snapshot is the versioned metrics document; see DESIGN.md
// "Observability contract" for the schema.
type Snapshot struct {
	Version int      `json:"version"`
	Metrics []Metric `json:"metrics"`
}

// Snapshot renders every registered metric in sorted name order. The bytes
// of its JSON encoding are a pure function of the metric values —
// registration order and worker count leave no trace.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Version: MetricsVersion, Metrics: []Metric{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		v := c.Value()
		snap.Metrics = append(snap.Metrics, Metric{
			Name: c.name, Type: "counter", Volatile: c.volatile, Value: &v,
		})
	}
	for _, g := range r.gauges {
		v := g.Value()
		snap.Metrics = append(snap.Metrics, Metric{
			Name: g.name, Type: "gauge", Volatile: g.volatile, Value: &v,
		})
	}
	for _, h := range r.histograms {
		count := h.count.Load()
		sum := h.sum.Load()
		m := Metric{
			Name: h.name, Type: "histogram", Volatile: h.volatile,
			Count: &count, Sum: &sum,
			Buckets: make([]Bucket, len(h.bounds)),
		}
		for i, le := range h.bounds {
			m.Buckets[i] = Bucket{Le: le, Count: h.buckets[i].Load()}
		}
		overflow := h.buckets[len(h.bounds)].Load()
		m.Overflow = &overflow
		snap.Metrics = append(snap.Metrics, m)
	}
	sort.Slice(snap.Metrics, func(i, j int) bool { return snap.Metrics[i].Name < snap.Metrics[j].Name })
	return snap
}

// Stable returns the snapshot with every volatile metric removed — the
// rendering the determinism golden tests compare across worker counts.
func (s Snapshot) Stable() Snapshot {
	out := Snapshot{Version: s.Version, Metrics: []Metric{}}
	for _, m := range s.Metrics {
		if !m.Volatile {
			out.Metrics = append(out.Metrics, m)
		}
	}
	return out
}
