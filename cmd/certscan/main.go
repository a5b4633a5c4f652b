// Command certscan is the zgrab-equivalent network scanner: it reads a list
// of host:port targets, grabs each endpoint's certificate chain over the
// wire protocol with a concurrent worker pool, validates what it finds
// against an (empty, i.e. trust-nothing) root store, and prints a per-target
// summary plus aggregate statistics.
//
// Usage:
//
//	certscan -targets targets.txt [-workers 32] [-timeout 3s] [-repeat 1 -interval 2s]
//	         [-retries 0] [-backoff 100ms] [-backoff-max 2s] [-scan-seed 1]
//	         [-o corpus.spki [-format v2|v3]] [-json]
//	         [-metrics-out metrics.json] [-trace-out trace.jsonl]
//	         [-events-out events.jsonl] [-debug-addr :6060] [-sample-interval 1s]
//
// -metrics-out writes the run's metric registry (wire.*, sweep.*,
// certscan.*, snapshot.* when -o is set) as a versioned JSON document;
// -trace-out appends one JSON line per sweep span; -events-out appends the
// structured event journal (sweep.start/finish, retry.storm). -debug-addr
// serves the live telemetry surface — /metrics (Prometheus text exposition),
// /samples (time-series sampler document), /events (journal tail), /statusz
// (operator page) — plus expvar (/debug/vars, with the live registry as the
// "obs" var) and pprof (/debug/pprof/) while the scan runs; -sample-interval
// adds a wall-clock sampling ticker on top of the per-sweep sample.
//
// Faulty endpoints (refused, stalled, reset, truncated or corrupted
// connections — e.g. a servesim -chaos population) are retried up to
// -retries times with exponential backoff and deterministic seeded jitter;
// -json appends a machine-readable summary including the retry/failure
// counters.
//
// With -repeat > 1 the scanner sweeps multiple times and reports how many
// endpoints rotated their certificate between sweeps — the wire-level
// equivalent of the paper's reissue observation.
//
// With -o the sweeps are also accumulated as a scan corpus — each sweep
// becomes one scan, each grabbed certificate one (certificate, IP)
// observation — and written as a snapshot that analyze/linkdev can load
// (-format v3 adds the point-lookup indexes certquery serves from).
// Only IPv4-literal targets can appear in the corpus (the observation model
// is address-based); hostname targets are swept but skipped from the corpus
// with a warning.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"securepki/cmd/telemetry"
	"securepki/internal/netsim"
	"securepki/internal/obs"
	"securepki/internal/parallel"
	"securepki/internal/snapshot"
	"securepki/internal/wire"
)

func main() {
	var (
		targetsFile = flag.String("targets", "", "file of host:port targets, one per line (required)")
		workers     = flag.Int("workers", 32, "concurrent connections")
		timeout     = flag.Duration("timeout", 3*time.Second, "per-attempt timeout")
		retries     = flag.Int("retries", 0, "retry attempts per target after a retryable failure")
		backoff     = flag.Duration("backoff", 100*time.Millisecond, "base backoff before the first retry (doubles per retry)")
		backoffMax  = flag.Duration("backoff-max", 2*time.Second, "backoff growth cap")
		scanSeed    = flag.Uint64("scan-seed", 1, "seed for the backoff jitter streams")
		repeat      = flag.Int("repeat", 1, "number of sweeps")
		interval    = flag.Duration("interval", 2*time.Second, "pause between sweeps")
		outCorpus   = flag.String("o", "", "accumulate sweeps into a corpus and write it as a snapshot (see -format)")
		outFormat   = flag.String("format", "v2", "snapshot format for -o: v2 (sharded columnar) or v3 (adds point-lookup indexes for certquery)")
		memBudget   = flag.Int64("mem-budget", 0, "encode -o through the streaming writer with this sort-memory bound in bytes (0 = one-shot in-memory encode); bytes identical either way")
		spillDir    = flag.String("spill-dir", "", "directory for streaming-encode spill files (\"\" = OS temp dir); implies -mem-budget's streaming path")
		jsonOut     = flag.Bool("json", false, "print a JSON run summary (retry/failure counters) to stdout")
		metricsOut  = flag.String("metrics-out", "", "write the run's metrics as a versioned JSON document")
		traceOut    = flag.String("trace-out", "", "append per-sweep span events as JSON lines")
	)
	tel := telemetry.RegisterFlags(flag.CommandLine, "scanning", "sweep.start/finish, retry.storm", "sample once per sweep only")
	flag.Parse()
	if *targetsFile == "" {
		fmt.Fprintln(os.Stderr, "certscan: -targets is required")
		os.Exit(2)
	}
	if *outFormat != "v2" && *outFormat != "v3" {
		fmt.Fprintf(os.Stderr, "certscan: unknown -format %q (want v2 or v3)\n", *outFormat)
		os.Exit(2)
	}
	targets, err := readTargets(*targetsFile)
	if err != nil {
		fatal(err)
	}
	if len(targets) == 0 {
		fatal(fmt.Errorf("no targets in %s", *targetsFile))
	}

	reg := obs.NewRegistry()
	parallel.SetObserver(obs.NewParallelCollector(reg))
	defer parallel.SetObserver(nil)
	var tracer *obs.Tracer
	if *traceOut != "" {
		tf, err := obs.WriteTraceFile(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer tf.Close()
		tracer = obs.NewWallClockTracer(tf)
	} else if tel.Serving() {
		tracer = obs.NewWallClockTracer(io.Discard) // /statusz still gets the span tail
	}
	tracer.KeepTail(obs.DefaultJournalTail)
	live, err := tel.Start("certscan", reg, tracer)
	if err != nil {
		fatal(err)
	}
	defer live.Close()

	cfg := scanConfig{
		Targets:  targets,
		Workers:  *workers,
		Repeat:   *repeat,
		Interval: *interval,
		Opts: wire.Options{
			AttemptTimeout: *timeout,
			Retries:        *retries,
			BackoffBase:    *backoff,
			BackoffMax:     *backoffMax,
			Seed:           *scanSeed,
		},
		BuildCorpus: *outCorpus != "",
		Obs:         reg,
		Tracer:      tracer,
		Journal:     live.Journal,
		Sampler:     live.Sampler,
	}
	corpus, summary, err := runSweeps(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		if err := writeJSONSummary(os.Stdout, summary); err != nil {
			fatal(err)
		}
	}
	if corpus != nil {
		f, err := os.Create(*outCorpus)
		if err != nil {
			fatal(err)
		}
		// A live scan has no routing view, so the v3 AS index is empty;
		// fingerprint/SPKI/IP lookups all work.
		var err2 error
		if *memBudget > 0 || *spillDir != "" {
			err2 = snapshot.StreamCorpus(f, corpus, snapshot.Options{Obs: reg}, snapshot.StreamWriterConfig{
				SpillDir:  *spillDir,
				MemBudget: *memBudget,
				V3:        *outFormat == "v3",
			})
		} else if *outFormat == "v3" {
			err2 = snapshot.WriteV3(f, corpus, snapshot.Options{Obs: reg})
		} else {
			err2 = snapshot.Write(f, corpus, snapshot.Options{Obs: reg})
		}
		if err2 != nil {
			f.Close()
			fatal(err2)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "certscan: wrote %s (%d certs, %d scans)\n",
			*outCorpus, corpus.NumCerts(), corpus.NumScans())
	}
	if *metricsOut != "" {
		if err := obs.WriteMetricsFile(*metricsOut, reg); err != nil {
			fatal(err)
		}
	}
}

// targetIP extracts the IPv4 address from a host:port target; hostname
// targets have no place in the address-keyed observation model.
func targetIP(addr string) (netsim.IP, bool) {
	host := addr
	if h, _, err := net.SplitHostPort(addr); err == nil {
		host = h
	}
	ip, err := netsim.ParseIP(host)
	if err != nil {
		return 0, false
	}
	return ip, true
}

func readTargets(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "certscan:", err)
	os.Exit(1)
}
