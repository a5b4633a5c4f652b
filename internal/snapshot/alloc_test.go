//go:build !race

package snapshot

import (
	"io"
	"runtime"
	"testing"
)

// The writers allocate little beyond the bytes they emit. Each write
// builds its own shard compressors (~1.2 MB each), so what it allocates
// does not depend on when the last GC ran. The bounds hold without the
// race detector only: under it WriteLintColumn allocates ~2.2× its output.

// TestWriteV3AllocBound: over the bench corpus WriteV3 allocates about
// 3.1× its output, most of it the index sections, the sighting sorters'
// records and its two compressors. A shard copied to be laid out,
// compressed into a regrown buffer or copied again to land, or sorters
// grown by doubling, would take it past 4×.
func TestWriteV3AllocBound(t *testing.T) {
	c, v3 := benchCorpus(t)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := WriteV3(io.Discard, c, Options{Workers: 2, ASOf: testASOf}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got, limit := res.AllocedBytesPerOp(), 4*int64(len(v3)); got > limit {
		t.Errorf("WriteV3 allocates %d bytes per %d-byte snapshot (%.1f×), bound 4×",
			got, len(v3), float64(got)/float64(len(v3)))
	}
}

// TestWriteLintColumnAllocBound: WriteLintColumn allocates about 1.1× its
// output: the run records and their spans, each grown once to the batch's
// size, and a 64 KiB output buffer. Either grown by doubling, or a heap copy
// per key or posting entry or per detail string, would take it past 1.5×.
func TestWriteLintColumnAllocBound(t *testing.T) {
	results, infos := testLintResults(benchLintCerts), testLintInfos()
	var out countingWriter
	if err := WriteLintColumn(&out, results, infos); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := WriteLintColumn(io.Discard, results, infos); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got, limit := res.AllocedBytesPerOp(), 3*out.n/2; got > limit {
		t.Errorf("WriteLintColumn allocates %d bytes per %d-byte column (%.2f×), bound 1.5×",
			got, out.n, float64(got)/float64(out.n))
	}
}

// TestWriteV3AllocIgnoresGC: a WriteV3 that follows two GCs allocates
// within 5% of one that follows another write. With compressors kept in a
// sync.Pool across writes, which two GCs empty, the first read 14–29% more
// over the bench corpus.
func TestWriteV3AllocIgnoresGC(t *testing.T) {
	c, _ := benchCorpus(t)
	write := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := WriteV3(io.Discard, c, Options{Workers: 2, ASOf: testASOf}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	write()
	warm := write()
	runtime.GC()
	runtime.GC()
	cold := write()
	if lo, hi := min(warm, cold), max(warm, cold); float64(hi-lo) > 0.05*float64(warm) {
		t.Errorf("WriteV3 allocates %d bytes after two GCs, %d right after another write: more than 5%% apart", cold, warm)
	}
}
