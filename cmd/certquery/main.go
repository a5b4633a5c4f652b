// Command certquery serves point lookups over a snapshot v3 file as a small
// JSON HTTP API — the paper's "query the corpus" workflows (certificate by
// fingerprint, key-sharing group by SPKI, sighting history by IP, cert
// population by AS) without ever decoding the corpus into memory.
//
// Usage:
//
//	certquery -corpus corpus.v3 [-lint findings.lc] [-addr 127.0.0.1:0]
//	          [-cache 16] [-no-mmap] [-verify] [-linger 0]
//	          [-metrics-out metrics.json] [-events-out events.jsonl]
//	          [-access-log access.jsonl] [-debug-addr :6060] [-sample-interval 1s]
//
// Endpoints:
//
//	GET /v1/cert/{fp}   one certificate by hex SHA-256 fingerprint
//	GET /v1/spki/{spki} fingerprints of every cert carrying the public key
//	GET /v1/ip/{ip}     everything the dotted-quad IP served, across scans
//	GET /v1/as/{asn}    fingerprints of every cert observed inside the AS
//	GET /v1/lint/{fp}   persisted lint findings from the -lint sidecar column
//	GET /healthz        corpus cardinalities and index status
//
// Missing keys answer 404 with a JSON error body; malformed keys answer
// 400; the only 500s are store-level failures (a corrupt shard surfacing
// lazily — also journaled as query.shard_error / query.5xx events). The
// bound address is printed to stdout so ":0" callers can discover the port.
// -metrics-out writes the query.* registry on exit; -access-log appends one
// JSON line per request with the request ID echoed as X-Request-Id;
// -events-out appends the event journal; -debug-addr serves the telemetry
// surface (/metrics, /samples, /events, /statusz) plus expvar (/debug/vars)
// and pprof (/debug/pprof/); -sample-interval runs the sampling ticker.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"securepki/cmd/telemetry"
	"securepki/internal/obs"
	"securepki/internal/querystore"
	"securepki/internal/snapshot"
)

func main() {
	var (
		corpus     = flag.String("corpus", "", "v3 snapshot file to serve (required)")
		lintPath   = flag.String("lint", "", "findings sidecar column to serve on /v1/lint (written by analyze -lint-out)")
		addr       = flag.String("addr", "127.0.0.1:0", "listen address (port 0 = ephemeral, printed to stdout)")
		cache      = flag.Int("cache", 16, "hot-shard cache size (decompressed cert shards kept resident)")
		noMmap     = flag.Bool("no-mmap", false, "use pread instead of mmap for the snapshot file")
		verify     = flag.Bool("verify", false, "re-hash every served certificate against its index fingerprint")
		linger     = flag.Duration("linger", 0, "serve for this long then exit (0 = until interrupted)")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics as a versioned JSON document on exit")
		accessLog  = flag.String("access-log", "", "append one JSON line per request (method, route, status, latency, request ID); \"-\" writes to stderr")
	)
	tel := telemetry.RegisterFlags(flag.CommandLine, "serving", "query.5xx, query.shard_error", "off")
	flag.Parse()
	if *corpus == "" {
		fatal(fmt.Errorf("-corpus is required"))
	}

	reg := obs.NewRegistry()
	live, err := tel.Start("certquery", reg, nil)
	if err != nil {
		fatal(err)
	}
	defer live.Close()

	st, err := querystore.Open(*corpus, querystore.Options{
		CacheShards:   *cache,
		VerifyDigests: *verify,
		DisableMmap:   *noMmap,
		Obs:           reg,
		Journal:       live.Journal,
	})
	if err != nil {
		fatal(err)
	}
	defer st.Close()
	stats := st.Stats()
	fmt.Fprintf(os.Stderr, "certquery: %s: %d certs, %d scans, %d observations, %d IP keys, %d AS keys\n",
		*corpus, stats.Certs, stats.Scans, stats.Observations, stats.IPKeys, stats.ASKys)

	var lint *snapshot.LintColumn
	if *lintPath != "" {
		lint, err = snapshot.ReadLintColumnFile(*lintPath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "certquery: %s: %d linters, %d certs, %d findings\n",
			*lintPath, len(lint.Lints), lint.CertCount(), lint.FindingCount())
	}

	// Catch SIGTERM before the address goes out: a script may signal as
	// soon as it reads it, and must get the graceful stop (and the
	// -metrics-out file), not the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The bound address is the machine-readable line; everything else goes
	// to stderr so scripts can capture just the port.
	fmt.Printf("%s\n", ln.Addr())

	qs := newServer(st, lint, reg, time.Now)
	qs.journal = live.Journal
	if *accessLog != "" {
		if *accessLog == "-" {
			qs.access = newAccessLogger(os.Stderr)
		} else {
			af, err := obs.WriteTraceFile(*accessLog)
			if err != nil {
				fatal(err)
			}
			defer af.Close()
			qs.access = newAccessLogger(af)
		}
	}
	srv := &http.Server{Handler: qs.mux()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	var timeout <-chan time.Time
	if *linger > 0 {
		timeout = time.After(*linger)
	}
	select {
	case <-sig:
	case <-timeout:
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "certquery: shutdown: %v\n", err)
	}

	if *metricsOut != "" {
		if err := obs.WriteMetricsFile(*metricsOut, reg); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "certquery: %v\n", err)
	os.Exit(1)
}
