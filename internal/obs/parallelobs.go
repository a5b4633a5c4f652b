package obs

import "securepki/internal/parallel"

// ParallelCollector adapts a Registry into a parallel.Observer, recording
// how the worker pool carves work up. Every parallel.* metric is volatile
// by construction: dispatch counts and block sizes are functions of the
// worker knob (a serial run claims the whole range as one block), so they
// are excluded from the byte-stability contract and exist for humans
// reading -metrics-out / expvar.
type ParallelCollector struct {
	dispatches *Counter
	tasks      *Counter
	blockItems *Histogram
}

// NewParallelCollector registers the parallel.* metrics on reg and returns
// a collector ready for parallel.SetObserver.
func NewParallelCollector(reg *Registry) *ParallelCollector {
	return &ParallelCollector{
		dispatches: reg.Counter("parallel.dispatches", Volatile),
		tasks:      reg.Counter("parallel.tasks", Volatile),
		blockItems: reg.Histogram("parallel.block_items",
			[]int64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}, Volatile),
	}
}

// ParallelDispatch implements parallel.Observer: one dispatch of items
// indices, histogrammed by the size of the blocks its workers claim.
func (c *ParallelCollector) ParallelDispatch(block, items int) {
	if c == nil || block <= 0 || items <= 0 {
		return
	}
	c.dispatches.Inc()
	c.tasks.Add(int64(items))
	c.blockItems.Observe(int64(block))
}

var _ parallel.Observer = (*ParallelCollector)(nil)
