// Package parallel provides the bounded worker pool shared by the pipeline's
// hot stages (scan sweep, validation, index building, linting, linking,
// snapshot decode). The paper's measurement only worked because the tooling
// saturated the hardware; this package is the reproduction's equivalent,
// with one extra constraint the original did not have: every parallel stage
// must produce byte-identical results to its serial counterpart, at any
// worker count.
//
// The pool has one scheduling rule: workers claim fixed-size blocks of
// consecutive indices from one shared cursor until none remain, so a slow
// stretch of the input (the population's devices, which sign, before its
// sites) is spread over every worker instead of stalling the one that was
// handed it. Which worker runs an index is therefore a matter of timing, and
// the determinism recipe never depends on it:
//
//   - each index writes only its own output slot;
//   - every merge walks the slots in index order after the barrier;
//   - nothing iterates a shared map inside a worker.
//
// Callers pass the configured worker count straight through; zero or negative
// means GOMAXPROCS.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Observer receives one event per dispatch: how many items the pool ran
// and how many consecutive indices each claimed block held. It exists for
// observability (internal/obs adapts it into metrics); the pool itself never
// depends on it, keeping this package module-free. Implementations must be
// goroutine-safe — dispatches happen from whichever goroutine calls ForEach.
type Observer interface {
	ParallelDispatch(block, items int)
}

// observerBox wraps the interface so atomic.Value accepts a nil clear.
type observerBox struct{ o Observer }

var observerState atomic.Value // observerBox

// SetObserver installs the process-wide dispatch observer; nil removes it.
// Commands install one when metrics are requested; libraries and tests
// that compare byte-stable output leave it unset.
func SetObserver(o Observer) {
	observerState.Store(observerBox{o: o})
}

func currentObserver() Observer {
	if b, ok := observerState.Load().(observerBox); ok {
		return b.o
	}
	return nil
}

// Workers resolves a worker-count knob: values <= 0 mean GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// blocksPerWorker is how many blocks each worker's fair share of a dispatch
// is cut into. Enough that a worker stuck on a slow block leaves the rest to
// the others, few enough that the shared cursor is touched rarely.
const blocksPerWorker = 32

// ForEach invokes fn(i) for every i in [0, n) across the worker pool and
// returns after all complete. w = min(Workers(workers), n) goroutines claim
// blocks of ⌈n/(32·w)⌉ consecutive indices from one atomic cursor until none
// remain; with w = 1 the pool is a plain loop over [0, n) on the caller's
// goroutine.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := min(Workers(workers), n)
	block := n
	if w > 1 {
		block = (n + blocksPerWorker*w - 1) / (blocksPerWorker * w)
	}
	if o := currentObserver(); o != nil {
		o.ParallelDispatch(block, n)
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(block))) - block
				if lo >= n {
					return
				}
				for i, hi := lo, min(lo+block, n); i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// Map computes out[i] = fn(i) for every i in [0, n) across the worker pool.
// Output order matches input order regardless of scheduling.
func Map[T any](workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	ForEach(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}
