package snapshot

import (
	"compress/gzip"
	"io"
	"runtime"
	"testing"
)

// TestCompressorBytes measures what a gzip.BestSpeed writer allocates to
// compress a shard: the per-compressor size that sets how many compressors
// a StreamWriter's budget has room for. A Go release that moves it moves
// that count at budgets near a multiple of it; re-measure and update
// compressorBytes.
func TestCompressorBytes(t *testing.T) {
	raw := make([]byte, 64<<10)
	for i := range raw {
		raw[i] = byte(i * i >> 7)
	}
	var got uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		zw, err := gzip.NewWriterLevel(io.Discard, shardCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(zw)
		if n := after.TotalAlloc - before.TotalAlloc; try == 0 || n < got {
			got = n
		}
	}
	if got != compressorBytes {
		t.Errorf("a written BestSpeed compressor allocates %d bytes; compressorBytes says %d", got, compressorBytes)
	}
}

// TestCompressorCount: a writer keeps as many compressors as fit in an
// eighth of its budget, at least one and at most Workers — one at the
// benchmark's 2 MiB and mem-smoke's 4 MiB, Workers at the default budget up
// to the 27 its eighth has room for.
func TestCompressorCount(t *testing.T) {
	for _, tc := range []struct {
		budget        int64
		workers, want int
	}{
		{64 << 10, 4, 1},
		{2 << 20, 1, 1}, {2 << 20, 2, 1}, {2 << 20, 16, 1},
		{4 << 20, 1, 1}, {4 << 20, 2, 1}, {4 << 20, 16, 1},
		{0, 1, 1}, {0, 2, 2}, {0, 16, 16}, {0, 64, 27},
	} {
		sw, err := NewStreamWriter(Options{Workers: tc.workers}, StreamWriterConfig{SpillDir: t.TempDir(), MemBudget: tc.budget})
		if err != nil {
			t.Fatal(err)
		}
		if sw.compressors != tc.want {
			t.Errorf("budget %d, %d workers: %d compressors, want %d", tc.budget, tc.workers, sw.compressors, tc.want)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamWriterDropsCompressors: a writer builds its compressors as
// shards need them, never more than its count, and holds none once it is
// finished or closed.
func TestStreamWriterDropsCompressors(t *testing.T) {
	c := testCorpus(t, 300, 9, 500)
	opt := Options{Workers: 4, CertsPerShard: 16, ScansPerShard: 1, ASOf: testASOf}
	for _, finish := range []bool{true, false} {
		sw := streamFill(t, c, opt, StreamWriterConfig{SpillDir: t.TempDir()})
		if held := len(sw.idle) + len(sw.inflight); held == 0 || held > sw.compressors {
			t.Fatalf("%d compressors built for %d allowed", held, sw.compressors)
		}
		if finish {
			if err := sw.Finish(io.Discard); err != nil {
				t.Fatal(err)
			}
		} else if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if sw.idle != nil || len(sw.inflight) != 0 {
			t.Errorf("finished=%v: writer still holds %d idle and %d in-flight compressors", finish, len(sw.idle), len(sw.inflight))
		}
	}
}
