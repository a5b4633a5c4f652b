package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"securepki/internal/obs"
	"securepki/internal/parallel"
	"securepki/internal/scanstore"
	"securepki/internal/truststore"
	"securepki/internal/wire"
	"securepki/internal/x509lite"
)

// scanConfig is everything the sweep engine needs; main builds one from
// flags, tests build one directly with injected clock/sleep/dial so a whole
// certscan run is deterministic.
type scanConfig struct {
	Targets  []string
	Workers  int
	Repeat   int
	Interval time.Duration
	// Opts carries the retry policy down to wire.ScanRetry: attempt timeout,
	// retries, backoff, jitter seed, and the injectable dialer/sleeper.
	Opts wire.Options
	// BuildCorpus accumulates sweeps into a scan corpus (the -o path is
	// main's concern; tests snapshot the returned corpus in memory).
	BuildCorpus bool
	// Now stamps each sweep's scan in the corpus; nil means time.Now. The
	// chaos matrix test pins it so snapshots are byte-comparable.
	Now func() time.Time
	// Pause waits between sweeps; nil means time.Sleep.
	Pause func(time.Duration)
	// Obs receives the run's metrics (wire.*, sweep.*, certscan.*); nil
	// disables metering. Everything recorded here is deterministic for a
	// deterministic fault schedule — worker count never changes the bytes.
	Obs *obs.Registry
	// Tracer emits one span per sweep ("certscan.sweep"); nil means spans
	// are timed on cfg.Now but written nowhere (the span's Timer still
	// drives the progress line).
	Tracer *obs.Tracer
	// Journal receives structured events at sweep boundaries (sweep.start,
	// sweep.finish, retry.storm) — all serial program points, so the event
	// sequence is worker-count-independent. nil disables journaling.
	Journal *obs.Journal
	// Sampler, when set, is ticked once at the end of every sweep — the
	// deterministic sampling point the telemetry matrix test pins. The live
	// wall-clock ticker (-sample-interval) runs on top of this.
	Sampler *obs.Sampler
}

// sweepSummary is the machine-readable outcome of a certscan run (-json).
// Counters accumulate across sweeps; map keys marshal sorted, so two runs
// with the same seed produce byte-identical summaries.
type sweepSummary struct {
	Sweeps   int            `json:"sweeps"`
	Targets  int            `json:"targets"`
	OK       int            `json:"ok"`
	Failed   int            `json:"failed"`
	Attempts int            `json:"attempts"`
	Retries  int            `json:"retries"`
	Rotated  int            `json:"rotated"`
	Statuses map[string]int `json:"statuses"`
	// Reasons counts "retry:<reason>" per retried fault and "fail:<reason>"
	// per endpoint that stayed failed — the wire.SweepStats taxonomy.
	Reasons map[string]int `json:"reasons"`
}

// runSweeps executes cfg.Repeat scan sweeps, printing per-target verdicts to
// out, and returns the accumulated corpus (nil unless cfg.BuildCorpus) plus
// the aggregate summary. It is the whole of certscan behind flag parsing.
func runSweeps(cfg scanConfig, out, errOut io.Writer) (*scanstore.Corpus, sweepSummary, error) {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	pause := cfg.Pause
	if pause == nil {
		pause = time.Sleep
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(io.Discard, now) // spans still time the sweeps
	}

	store := truststore.NewStore() // empty: classifies like a client that trusts nothing
	lastSeen := make(map[string]x509lite.Fingerprint)
	summary := sweepSummary{
		Targets:  len(cfg.Targets),
		Statuses: make(map[string]int),
		Reasons:  make(map[string]int),
	}

	var corpus *scanstore.Corpus
	if cfg.BuildCorpus {
		corpus = scanstore.NewCorpus()
	}
	warnedHosts := make(map[string]bool)

	// Per-result parse + Ed25519 verification is the CPU-heavy half of a
	// sweep, so it fans out across the worker pool; printing then walks the
	// verdicts serially in target order, keeping output stable.
	type verdict struct {
		cert     *x509lite.Certificate
		status   truststore.Status
		parseErr error
	}

	for sweep := 0; sweep < cfg.Repeat; sweep++ {
		if sweep > 0 {
			pause(cfg.Interval)
		}
		span := tracer.Start("certscan.sweep")
		span.SetAttrInt("sweep", int64(sweep+1))
		span.SetAttrInt("targets", int64(len(cfg.Targets)))
		cfg.Journal.Emit("sweep.start",
			"sweep", fmt.Sprint(sweep+1),
			"targets", fmt.Sprint(len(cfg.Targets)))
		cfg.Obs.Gauge("progress.sweep").Set(int64(sweep + 1))
		cfg.Obs.Gauge("progress.targets").Set(int64(len(cfg.Targets)))
		sweepStart := now()
		sweepOpts := cfg.Opts
		// Each sweep gets its own jitter stream family so repeated sweeps do
		// not replay identical backoff schedules against the same endpoints.
		sweepOpts.Seed = cfg.Opts.Seed + uint64(sweep)
		sweepOpts.Obs = cfg.Obs
		results, wst := wire.ScanRetry(context.Background(), cfg.Targets, cfg.Workers, sweepOpts)
		verdicts := parallel.Map(0, len(results), func(i int) verdict {
			r := results[i]
			if r.Err != nil {
				return verdict{}
			}
			cert, err := x509lite.Parse(r.Chain[0])
			if err != nil {
				return verdict{parseErr: err}
			}
			return verdict{cert: cert, status: store.Verify(cert)}
		})
		summary.Sweeps++
		summary.OK += wst.OK
		summary.Failed += wst.Failed
		summary.Attempts += wst.Attempts
		summary.Retries += wst.Retries
		for reason, n := range wst.Reasons.Map() {
			//lint:ignore detmap accumulating into a map; JSON marshalling sorts keys
			summary.Reasons[reason] += n
		}
		var ok, failed int
		var sweepObs []scanstore.Observation
		statusCounts := map[truststore.Status]int{}
		for i, r := range results {
			if r.Err != nil {
				failed++
				fmt.Fprintf(out, "%-22s ERROR %v\n", r.Addr, r.Err)
				continue
			}
			ok++
			v := verdicts[i]
			if v.parseErr != nil {
				// Handshake fine, certificate bytes unparseable: the terminal
				// branch of the taxonomy — retrying cannot cure it, so it is
				// counted, not retried. Mirrored into the registry so the
				// sweep.* namespace matches summary.Reasons exactly.
				summary.Reasons["fail:"+wire.Reason(wire.ErrMalformedCert)]++
				cfg.Obs.Counter("sweep.fail." + wire.Reason(wire.ErrMalformedCert)).Inc()
				fmt.Fprintf(out, "%-22s PARSE-ERROR %v\n", r.Addr, v.parseErr)
				continue
			}
			statusCounts[v.status]++
			summary.Statuses[v.status.String()]++
			cfg.Obs.Counter("certscan.status." + v.status.String()).Inc()
			fp := v.cert.Fingerprint()
			if prev, seen := lastSeen[r.Addr]; seen && prev != fp {
				summary.Rotated++
				cfg.Obs.Counter("certscan.rotated").Inc()
				fmt.Fprintf(out, "%-22s %-16s CN=%q serial=%s (REISSUED)\n", r.Addr, v.status, v.cert.Subject.CommonName, v.cert.SerialNumber)
			} else {
				fmt.Fprintf(out, "%-22s %-16s CN=%q serial=%s\n", r.Addr, v.status, v.cert.Subject.CommonName, v.cert.SerialNumber)
			}
			lastSeen[r.Addr] = fp
			if corpus != nil {
				if ip, ipOK := targetIP(r.Addr); ipOK {
					sweepObs = append(sweepObs, scanstore.Observation{Cert: corpus.Intern(v.cert), IP: ip})
				} else if !warnedHosts[r.Addr] {
					warnedHosts[r.Addr] = true
					fmt.Fprintf(errOut, "certscan: %s is not an IPv4 literal; excluded from -o corpus\n", r.Addr)
				}
			}
		}
		if corpus != nil {
			if _, err := corpus.AddScan(scanstore.UMich, sweepStart, sweepObs); err != nil {
				return nil, summary, err
			}
		}
		cfg.Obs.Counter("certscan.sweeps").Inc()
		cfg.Obs.Gauge("progress.hosts_done").Set(int64(summary.OK + summary.Failed))
		if wire.IsRetryStorm(wst) {
			cfg.Obs.Counter("sweep.retry_storms").Inc()
			cfg.Journal.Emit("retry.storm",
				"sweep", fmt.Sprint(sweep+1),
				"retries", fmt.Sprint(wst.Retries),
				"targets", fmt.Sprint(wst.Targets))
		}
		cfg.Journal.Emit("sweep.finish",
			"sweep", fmt.Sprint(sweep+1),
			"ok", fmt.Sprint(ok),
			"failed", fmt.Sprint(failed),
			"retries", fmt.Sprint(wst.Retries))
		cfg.Sampler.Tick()
		span.SetAttrInt("ok", int64(ok))
		span.SetAttrInt("failed", int64(failed))
		span.SetAttrInt("retries", int64(wst.Retries))
		fmt.Fprintf(out, "# sweep %d: %d ok, %d failed, %d retries in %v;", sweep+1, ok, failed, wst.Retries, span.Timer)
		statuses := make([]truststore.Status, 0, len(statusCounts))
		for st := range statusCounts {
			statuses = append(statuses, st)
		}
		sort.Slice(statuses, func(i, j int) bool { return statuses[i] < statuses[j] })
		for _, st := range statuses {
			fmt.Fprintf(out, " %s=%d", st, statusCounts[st])
		}
		fmt.Fprintln(out)
		span.End()
	}
	if cfg.Repeat > 1 {
		fmt.Fprintf(out, "# certificates rotated between sweeps: %d\n", summary.Rotated)
	}
	return corpus, summary, nil
}

// writeJSONSummary emits the summary as indented JSON. Map keys marshal in
// sorted order, so the bytes are a pure function of the counters.
func writeJSONSummary(w io.Writer, s sweepSummary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
