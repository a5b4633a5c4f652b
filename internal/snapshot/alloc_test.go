//go:build !race

package snapshot

import (
	"io"
	"testing"
)

// The writers allocate little beyond the bytes they emit. These bounds
// hold without the race detector only: its sync.Pool drops a quarter of
// what is put back, so shard compressors are rebuilt at random. They are
// averages over the default benchmark time: a write that starts right
// after a GC rebuilds its compressors too (~2.4 MB more here), which a
// single-iteration run would count in full.

// TestWriteV3AllocBound: over the bench corpus WriteV3 allocates about
// 2.5× its output, most of it the index sections and the sighting sorters'
// records. A shard copied to be laid out, compressed into a regrown buffer
// or copied again to land, or sorters grown by doubling, would take it
// past 4×.
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
