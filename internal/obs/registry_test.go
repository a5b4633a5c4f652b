package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestCounterShardingIndependence proves the core byte-stability claim: the
// same event counts produce the same snapshot bytes regardless of how many
// goroutines record them.
func TestCounterShardingIndependence(t *testing.T) {
	render := func(workers int) []byte {
		reg := NewRegistry()
		c := reg.Counter("test.events")
		h := reg.Histogram("test.sizes", []int64{10, 100, 1000})
		// The same 1000 events, carved into per-worker ranges: which worker
		// records an event must not show in the snapshot.
		const n = 1000
		per := n / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w * per; i < (w+1)*per; i++ {
					c.Add(3)
					h.Observe(int64(i))
				}
			}(w)
		}
		wg.Wait()
		return reg.Snapshot().EncodeJSON()
	}
	want := render(1)
	for _, workers := range []int{2, 4, 8} {
		if got := render(workers); !bytes.Equal(got, want) {
			t.Fatalf("snapshot bytes differ at %d workers:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

func TestCounterValue(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	c.Add(5)
	c.Inc()
	c.Add(10)
	c.Add(1)
	if got := c.Value(); got != 17 {
		t.Fatalf("Value = %d, want 17", got)
	}
	if again := reg.Counter("c"); again != c {
		t.Fatal("re-registering a name must return the same counter")
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("g")
	g.Set(42)
	g.Add(-2)
	if got := g.Value(); got != 40 {
		t.Fatalf("Value = %d, want 40", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("h", []int64{1, 10, 100})
	for _, v := range []int64{0, 1, 2, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	snap := NewRegistry().Snapshot() // empty registry renders cleanly
	if len(snap.Metrics) != 0 {
		t.Fatalf("empty registry rendered %d metrics", len(snap.Metrics))
	}
	if h.Count() != 8 {
		t.Fatalf("Count = %d, want 8", h.Count())
	}
	// le=1: {0,1}; le=10: {2,10}; le=100: {11,100}; overflow: {101,5000}.
	wantBuckets := []uint64{2, 2, 2}
	for i, want := range wantBuckets {
		if got := h.buckets[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
	if got := h.buckets[3].Load(); got != 2 {
		t.Fatalf("overflow = %d, want 2", got)
	}
	if got := h.sum.Load(); got != 5225 {
		t.Fatalf("sum = %d, want 5225", got)
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.last").Add(1)
	reg.Gauge("a.first", Volatile).Set(9)
	reg.Histogram("m.middle", []int64{1}).Observe(0)
	snap := reg.Snapshot()
	var names []string
	for _, m := range snap.Metrics {
		names = append(names, m.Name)
	}
	if got := strings.Join(names, ","); got != "a.first,m.middle,z.last" {
		t.Fatalf("snapshot order = %s", got)
	}
	stable := snap.Stable()
	if len(stable.Metrics) != 2 {
		t.Fatalf("Stable kept %d metrics, want 2", len(stable.Metrics))
	}
	for _, m := range stable.Metrics {
		if m.Volatile {
			t.Fatalf("volatile metric %q survived Stable()", m.Name)
		}
	}
	if err := ValidateMetrics(snap.EncodeJSON()); err != nil {
		t.Fatalf("snapshot fails its own schema: %v", err)
	}
}

// TestNilSafety: every handle and the registry itself are valid no-ops when
// nil, so instrumented code never branches on "is obs enabled".
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("c").Add(1)
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1)
	reg.Gauge("g").Add(1)
	reg.Histogram("h", []int64{1}).Observe(1)
	if v := reg.Counter("c").Value(); v != 0 {
		t.Fatalf("nil counter Value = %d", v)
	}
	if n := len(reg.Snapshot().Metrics); n != 0 {
		t.Fatalf("nil registry snapshot has %d metrics", n)
	}
	var tr *Tracer
	span := tr.Start("phase")
	span.SetAttr("k", "v")
	if d := span.End(); d != 0 {
		t.Fatalf("nil span End = %v", d)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("nil tracer Err = %v", err)
	}
}

func TestParallelCollector(t *testing.T) {
	reg := NewRegistry()
	c := NewParallelCollector(reg)
	c.ParallelDispatch(3, 10)
	c.ParallelDispatch(5, 5) // serial: the whole range is one block
	c.ParallelDispatch(0, 5) // ignored
	if got := reg.Counter("parallel.dispatches", Volatile).Value(); got != 2 {
		t.Fatalf("dispatches = %d, want 2", got)
	}
	if got := reg.Counter("parallel.tasks", Volatile).Value(); got != 15 {
		t.Fatalf("tasks = %d, want 15", got)
	}
	if got := reg.Histogram("parallel.block_items", nil, Volatile).Count(); got != 2 {
		t.Fatalf("block observations = %d, want 2", got)
	}
	for _, m := range reg.Snapshot().Metrics {
		if !m.Volatile {
			t.Fatalf("parallel metric %q must be volatile", m.Name)
		}
		if m.Name == "parallel.block_items" && *m.Sum != 8 {
			t.Fatalf("block sizes sum to %d, want 8", *m.Sum)
		}
	}
}
