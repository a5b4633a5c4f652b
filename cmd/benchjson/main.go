// Command benchjson converts `go test -bench` text output into JSON so the
// repo can keep a machine-readable perf trajectory (make bench writes
// BENCH_snapshot.json). It reads the benchmark output on stdin and prints a
// JSON document on stdout; non-benchmark lines (goos/pkg headers, PASS/ok)
// are carried through as context fields.
//
// Usage:
//
//	go test -run='^$' -bench=Snapshot -benchmem ./internal/snapshot | benchjson
//
// With -metrics, one or more obs metrics documents (comma-separated paths,
// as written by a cmd's -metrics-out flag) are validated and merged into
// the report under "obs", keyed by file base name — so a bench run and the
// instrumented sweep that produced it travel in one BENCH artifact.
//
// Custom b.ReportMetric pairs pass through untouched into each benchmark's
// metrics map; the snapshot benchmarks use this to record the process peak
// RSS ("peak-rss-B", from getrusage) next to certs/sec, so the artifact
// tracks the memory envelope alongside throughput.
//
// With -compare, it instead checks a fresh run against a committed report:
//
//	go test -run='^$' -bench=Snapshot -benchmem -count=5 ./internal/snapshot | benchjson -compare BENCH_snapshot.json
//
// Each benchmark needs at least five runs; their median B/op and allocs/op
// may exceed the report's by at most 5%, or benchjson exits 1. ns/op deltas
// are printed for information only: on a shared machine wall time moves
// further than any useful threshold.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"securepki/internal/obs"
)

// Benchmark is one parsed result line: the benchmark name, its iteration
// count, and every reported metric keyed by unit (ns/op, MB/s, certs/sec,
// B/op, allocs/op, ...). A map keyed by unit survives new ReportMetric calls
// without a schema change; encoding/json emits its keys sorted, so output
// stays deterministic.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the whole document. Obs carries merged -metrics documents
// keyed by file base name; Quantiles summarises every histogram in those
// documents as p50/p99 estimates (obs.Metric.Quantile), keyed by file then
// metric name — the SLO view of a BENCH artifact without re-deriving bucket
// math downstream. Map keys marshal sorted, so the report stays
// byte-deterministic for a fixed input set.
type Report struct {
	Context    map[string]string               `json:"context"`
	Benchmarks []Benchmark                     `json:"benchmarks"`
	Obs        map[string]json.RawMessage      `json:"obs,omitempty"`
	Quantiles  map[string]map[string]Quantiles `json:"quantiles,omitempty"`
}

// Quantiles is one histogram's summary in a BENCH report.
type Quantiles struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// mergeMetrics validates each obs metrics document and attaches it to the
// report. A document that fails schema validation aborts the merge: a BENCH
// artifact with a malformed metrics blob is worse than a failed run.
func mergeMetrics(rep *Report, paths []string) error {
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := obs.ValidateMetrics(data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if rep.Obs == nil {
			rep.Obs = map[string]json.RawMessage{}
		}
		base := filepath.Base(path)
		rep.Obs[base] = json.RawMessage(compact.Bytes())

		var snap obs.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, m := range snap.Metrics {
			p50, ok := m.Quantile(0.50)
			if !ok {
				continue // not a histogram
			}
			p99, _ := m.Quantile(0.99)
			if rep.Quantiles == nil {
				rep.Quantiles = map[string]map[string]Quantiles{}
			}
			if rep.Quantiles[base] == nil {
				rep.Quantiles[base] = map[string]Quantiles{}
			}
			rep.Quantiles[base][m.Name] = Quantiles{Count: *m.Count, P50: p50, P99: p99}
		}
	}
	return nil
}

func main() {
	metricsFiles := flag.String("metrics", "", "comma-separated obs metrics documents (-metrics-out output) to merge into the report")
	baseline := flag.String("compare", "", "check the benchmark output on stdin against this report instead of converting it")
	flag.Parse()
	rep, err := readBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		regressed, err := compareFile(os.Stdout, *baseline, rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *metricsFiles != "" {
		if err := mergeMetrics(&rep, strings.Split(*metricsFiles, ",")); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// readBench parses `go test -bench` output: every result line, in order,
// and the first goos/goarch/pkg/cpu header of each kind.
func readBench(r io.Reader) (Report, error) {
	rep := Report{Context: map[string]string{}, Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBenchLine(line)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: skipping %q: %v\n", line, err)
				continue
			}
			rep.Benchmarks = append(rep.Benchmarks, b)
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"),
			strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			// Later packages overwrite pkg:; keep the first value and count.
			if _, seen := rep.Context[k]; !seen {
				rep.Context[k] = strings.TrimSpace(v)
			}
		}
	}
	return rep, sc.Err()
}

// parseBenchLine parses one result line:
//
//	BenchmarkSnapshotRead/v2-8  10  9222634 ns/op  34.32 MB/s  16400 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseBenchLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, fmt.Errorf("want at least name, count and one metric pair")
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("iteration count %q: %w", fields[1], err)
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	pairs := fields[2:]
	if len(pairs)%2 != 0 {
		return Benchmark{}, fmt.Errorf("odd metric field count %d", len(pairs))
	}
	for i := 0; i < len(pairs); i += 2 {
		v, err := strconv.ParseFloat(pairs[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("metric value %q: %w", pairs[i], err)
		}
		b.Metrics[pairs[i+1]] = v
	}
	return b, nil
}
