package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 16, 0} {
		for _, n := range []int{0, 1, 2, 7, 64, 101, 1000} {
			seen := make([]atomic.Int32, n)
			ForEach(workers, n, func(i int) {
				seen[i].Add(1)
			})
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForEachBalancesSkew holds item 0 until items 16–63 have all run. A
// pool that handed each of its 2 workers one contiguous half would leave
// items 16–31 queued behind item 0 on the same worker, so the wait can only
// end if the other worker claims them: blocks must be smaller than n/4.
func TestForEachBalancesSkew(t *testing.T) {
	const n, held = 64, 48
	var done atomic.Int32
	release := make(chan struct{})
	ForEach(2, n, func(i int) {
		switch {
		case i == 0:
			select {
			case <-release:
			case <-time.After(10 * time.Second):
				t.Errorf("item 0 still waiting after 10s: %d of items 16-63 ran", done.Load())
			}
		case i >= n-held:
			if done.Add(1) == held {
				close(release)
			}
		}
	})
}

func TestMapPreservesOrder(t *testing.T) {
	n := 257
	out := Map(4, n, func(i int) int { return i * i })
	if len(out) != n {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if Map(4, 0, func(i int) int { return i }) != nil {
		t.Error("Map over empty range should be nil")
	}
}

// Map with any worker count must equal the serial result — the property every
// pipeline stage built on this package relies on.
func TestSerialParallelEquivalence(t *testing.T) {
	n := 512
	want := Map(1, n, func(i int) int { return i*31 + 7 })
	for _, workers := range []int{2, 3, 8, 0} {
		got := Map(workers, n, func(i int) int { return i*31 + 7 })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkForEachSkewed sweeps items whose first half costs twice the
// second, the shape of a scan over the population's devices (which sign)
// followed by its sites.
func BenchmarkForEachSkewed(b *testing.B) {
	const n = 2048
	work := func(rounds int) uint64 {
		x := uint64(rounds)
		for r := 0; r < rounds; r++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		return x
	}
	out := make([]uint64, n)
	for i := 0; i < b.N; i++ {
		ForEach(0, n, func(i int) {
			rounds := 2000
			if i < n/2 {
				rounds *= 2
			}
			out[i] = work(rounds)
		})
	}
}
