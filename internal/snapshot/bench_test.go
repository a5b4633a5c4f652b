package snapshot

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"

	"securepki/internal/obs"
	"securepki/internal/scanstore"
)

// The default bench corpus mirrors the paper's shape in miniature:
// observation-heavy (most scan rows are repeat sightings of already-known
// certificates — the corpus has ~48M hosts per scan against 8.6M distinct
// certificates overall), with scans from both operators.
const (
	benchCerts  = 2000
	benchScans  = 60
	benchObsPer = 2000 // 120k observations, 60:1 obs:cert
)

var benchState struct {
	once sync.Once
	c    *scanstore.Corpus
	v3   []byte
}

func benchCorpus(tb testing.TB) (*scanstore.Corpus, []byte) {
	benchState.once.Do(func() {
		benchState.c = testCorpus(tb, benchCerts, benchScans, benchObsPer)
		var v3 bytes.Buffer
		if err := WriteV3(&v3, benchState.c, Options{ASOf: testASOf}); err != nil {
			tb.Fatal(err)
		}
		benchState.v3 = v3.Bytes()
	})
	return benchState.c, benchState.v3
}

func reportCorpusRates(b *testing.B) {
	secs := b.Elapsed().Seconds()
	if secs == 0 {
		return
	}
	b.ReportMetric(float64(b.N)*benchCerts/secs, "certs/sec")
	b.ReportMetric(float64(b.N)*benchScans*benchObsPer/secs, "obs/sec")
	// Peak RSS rides along next to the throughput rates so BENCH_snapshot.json
	// tracks the memory envelope release over release. getrusage's high-water
	// is process-lifetime monotone, so the number reflects the heaviest
	// benchmark run so far in this process, not this sub-benchmark alone.
	if rss, ok := obs.PeakRSS(); ok {
		b.ReportMetric(float64(rss), "peak-rss-B")
	}
}

// BenchmarkSnapshotWrite writes the bench corpus at the default budget
// (v3, WriteV3) and at the streamed benchmark's 2 MiB (v3-2MiB), where the
// writer keeps one compressor and its spills go to disk.
func BenchmarkSnapshotWrite(b *testing.B) {
	c, v3 := benchCorpus(b)
	run := func(name string, cfg StreamWriterConfig) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(v3)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := StreamCorpus(io.Discard, c, Options{Workers: runtime.GOMAXPROCS(0), ASOf: testASOf}, cfg); err != nil {
					b.Fatal(err)
				}
			}
			reportCorpusRates(b)
		})
	}
	run("v3", StreamWriterConfig{})
	run("v3-2MiB", StreamWriterConfig{SpillDir: b.TempDir(), MemBudget: 2 << 20})
}

func BenchmarkSnapshotRead(b *testing.B) {
	_, v3 := benchCorpus(b)
	run := func(name string, data []byte, workers int) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := Read(bytes.NewReader(data), int64(len(data)), Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if c.NumCerts() != benchCerts {
					b.Fatal("bad corpus")
				}
			}
			reportCorpusRates(b)
		})
	}
	run("v3-serial", v3, 1)
	run("v3-parallel", v3, runtime.GOMAXPROCS(0))
}

// benchLintCerts sizes the lint-column bench at about the benchmark
// world's certificate count.
const benchLintCerts = 10000

func BenchmarkLintColumnWrite(b *testing.B) {
	results, infos := testLintResults(benchLintCerts), testLintInfos()
	var out countingWriter
	if err := WriteLintColumn(&out, results, infos); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(out.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteLintColumn(io.Discard, results, infos); err != nil {
			b.Fatal(err)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*benchLintCerts/secs, "certs/sec")
	}
}

// BenchmarkLintColumnWriteSpilled is the streamed build's column write:
// the bench corpus arrives in 2,048-certificate batches, in reverse, and a
// 256 KiB budget spills two sorted runs, which Finish merges with the
// sorted remainder once to check them and once per array.
func BenchmarkLintColumnWriteSpilled(b *testing.B) {
	results, infos := testLintResults(benchLintCerts), testLintInfos()
	var out countingWriter
	if err := WriteLintColumn(&out, results, infos); err != nil {
		b.Fatal(err)
	}
	slices.Reverse(results)
	dir := b.TempDir()
	b.SetBytes(out.n)
	b.ReportAllocs()
	b.ResetTimer()
	runs := 0
	for i := 0; i < b.N; i++ {
		lw, err := NewLintColumnWriter(infos, dir, 256<<10)
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(results); lo += 2048 {
			if err := lw.Add(results[lo:min(lo+2048, len(results))]); err != nil {
				b.Fatal(err)
			}
		}
		runs = lw.Runs()
		if err := lw.Finish(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := lw.Close(); err != nil {
			b.Fatal(err)
		}
	}
	if runs < 2 {
		b.Fatalf("%d runs spilled at a 256 KiB budget, want at least 2", runs)
	}
	b.ReportMetric(float64(runs), "runs")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*benchLintCerts/secs, "certs/sec")
	}
}

// countingWriter counts the bytes written to it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
