package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"securepki/cmd/telemetry"
	"securepki/internal/faultnet"
	"securepki/internal/obs"
	"securepki/internal/parallel"
	"securepki/internal/snapshot"
	"securepki/internal/wire"
)

// TestChaosMatrixMetricsIdentical is the observability determinism proof:
// the same chaos sweep that produces byte-identical corpus snapshots at any
// worker count (TestChaosMatrixSnapshotIdentical) also produces
// byte-identical stable metrics and trace lines. The fault schedule is a
// pure function of (seed, endpoint index, connection ordinal), every
// counter folds shard-locally, and the fake clock is called a fixed number
// of times per sweep — so workers 1, 4 and 16 cannot be told apart.
func TestChaosMatrixMetricsIdentical(t *testing.T) {
	chains := deviceChains(t, 14)

	run := func(workers int) (metrics, trace []byte) {
		policy := &faultnet.Policy{
			Seed:           99,
			Rate:           0.3,
			MaxConsecutive: 2,
			Sleep:          func(time.Duration) {},
		}
		targets := startServers(t, chains, policy)
		clock := fakeClock()
		reg := obs.NewRegistry()
		var traceBuf bytes.Buffer
		cfg := scanConfig{
			Targets: targets,
			Workers: workers,
			Repeat:  2,
			Opts: wire.Options{
				AttemptTimeout: 500 * time.Millisecond,
				Retries:        4,
				Seed:           7,
				Sleep:          noSleep,
			},
			Now:    clock,
			Pause:  noPause,
			Obs:    reg,
			Tracer: obs.NewTracer(&traceBuf, clock),
		}
		_, summary, err := runSweeps(cfg, io.Discard, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if summary.Failed != 0 {
			t.Fatalf("sweep failed to converge: %+v", summary)
		}
		return reg.Snapshot().Stable().EncodeJSON(), traceBuf.Bytes()
	}

	wantMetrics, wantTrace := run(1)
	if err := obs.ValidateMetrics(wantMetrics); err != nil {
		t.Fatalf("sweep metrics fail schema: %v", err)
	}
	if err := obs.ValidateTrace(wantTrace); err != nil {
		t.Fatalf("sweep trace fails schema: %v", err)
	}
	for _, workers := range []int{4, 16} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			gotMetrics, gotTrace := run(workers)
			if !bytes.Equal(gotMetrics, wantMetrics) {
				t.Errorf("stable metrics differ from workers=1:\n%s\nwant:\n%s", gotMetrics, wantMetrics)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Errorf("trace differs from workers=1:\n%s\nwant:\n%s", gotTrace, wantTrace)
			}
		})
	}

	// The chaos run must actually have exercised the retry instrumentation.
	if !bytes.Contains(wantMetrics, []byte(`"wire.retries"`)) {
		t.Error("chaos metrics carry no wire.retries counter")
	}
	if !bytes.Contains(wantMetrics, []byte(`"sweep.ok"`)) {
		t.Error("chaos metrics carry no sweep.ok counter")
	}
}

// TestObsSmoke is the end-to-end artifact check `make obs-smoke` runs: a
// small healthy sweep with the full observability surface on — registry,
// tracer, parallel observer — must emit schema-valid metrics and trace
// files. With OBS_SMOKE_OUT set, the artifacts are left in that directory
// for CI to upload next to BENCH_snapshot.json.
func TestObsSmoke(t *testing.T) {
	outDir := os.Getenv("OBS_SMOKE_OUT")
	if outDir == "" {
		outDir = t.TempDir()
	} else if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	parallel.SetObserver(obs.NewParallelCollector(reg))
	defer parallel.SetObserver(nil)

	targets := startServers(t, deviceChains(t, 6), nil)
	clock := fakeClock()
	tracePath := filepath.Join(outDir, "obs_trace.jsonl")
	tf, err := obs.WriteTraceFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scanConfig{
		Targets: targets,
		Workers: 4,
		Repeat:  2,
		Opts: wire.Options{
			AttemptTimeout: 500 * time.Millisecond,
			Retries:        1,
			Seed:           3,
			Sleep:          noSleep,
		},
		BuildCorpus: true,
		Now:         clock,
		Pause:       noPause,
		Obs:         reg,
		Tracer:      obs.NewTracer(tf, clock),
	}
	corpus, summary, err := runSweeps(cfg, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if summary.OK == 0 || corpus == nil {
		t.Fatalf("smoke sweep grabbed nothing: %+v", summary)
	}
	if err := snapshot.Write(io.Discard, corpus, snapshot.Options{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}

	metricsPath := filepath.Join(outDir, "obs_metrics.json")
	if err := obs.WriteMetricsFile(metricsPath, reg); err != nil {
		t.Fatal(err)
	}
	metricsData, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateMetrics(metricsData); err != nil {
		t.Errorf("metrics artifact fails schema: %v\n%s", err, metricsData)
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(traceData); err != nil {
		t.Errorf("trace artifact fails schema: %v\n%s", err, traceData)
	}
	// Every instrumented layer must have reported in: the wire client, the
	// sweep fold, the verdict counters, the snapshot encoder and the worker
	// pool observer.
	for _, name := range []string{`"wire.attempts"`, `"sweep.targets"`, `"certscan.sweeps"`, `"snapshot.encode.shards"`, `"parallel.dispatches"`} {
		if !bytes.Contains(metricsData, []byte(name)) {
			t.Errorf("metrics artifact missing %s:\n%s", name, metricsData)
		}
	}
	if !strings.Contains(string(traceData), `"name":"certscan.sweep"`) {
		t.Errorf("trace artifact missing sweep span:\n%s", traceData)
	}
}

// TestChaosMatrixTelemetryIdentical extends the determinism proof to the
// live-telemetry surfaces: the same 30%-chaos sweep that produces identical
// stable metrics at any worker count must also produce byte-identical
// sampler documents and journal lines. The journal only emits at serial
// program points (sweep boundaries) and the sampler ticks once per sweep on
// the shared fake clock, so workers 1, 4 and 16 cannot be told apart.
func TestChaosMatrixTelemetryIdentical(t *testing.T) {
	chains := deviceChains(t, 14)

	run := func(workers int) (samples, events []byte) {
		policy := &faultnet.Policy{
			Seed:           99,
			Rate:           0.3,
			MaxConsecutive: 2,
			Sleep:          func(time.Duration) {},
		}
		targets := startServers(t, chains, policy)
		clock := fakeClock()
		reg := obs.NewRegistry()
		var journalBuf bytes.Buffer
		sampler := obs.NewSampler(reg, obs.SamplerConfig{
			Capacity: 16,
			Interval: time.Second,
			Now:      clock,
		})
		cfg := scanConfig{
			Targets: targets,
			Workers: workers,
			Repeat:  2,
			Opts: wire.Options{
				AttemptTimeout: 500 * time.Millisecond,
				Retries:        4,
				Seed:           7,
				Sleep:          noSleep,
			},
			Now:     clock,
			Pause:   noPause,
			Obs:     reg,
			Journal: obs.NewJournal(&journalBuf, clock, 0),
			Sampler: sampler,
		}
		_, summary, err := runSweeps(cfg, io.Discard, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if summary.Failed != 0 {
			t.Fatalf("sweep failed to converge: %+v", summary)
		}
		return sampler.StableDocument().EncodeJSON(), journalBuf.Bytes()
	}

	wantSamples, wantEvents := run(1)
	if err := obs.ValidateSamples(wantSamples); err != nil {
		t.Fatalf("sweep samples fail schema: %v", err)
	}
	if err := obs.ValidateEvents(wantEvents); err != nil {
		t.Fatalf("sweep journal fails schema: %v", err)
	}
	for _, workers := range []int{4, 16} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			gotSamples, gotEvents := run(workers)
			if !bytes.Equal(gotSamples, wantSamples) {
				t.Errorf("sampler document differs from workers=1:\n%s\nwant:\n%s", gotSamples, wantSamples)
			}
			if !bytes.Equal(gotEvents, wantEvents) {
				t.Errorf("journal differs from workers=1:\n%s\nwant:\n%s", gotEvents, wantEvents)
			}
		})
	}

	// The run must actually have exercised the new surfaces: both sweeps
	// journaled, and the wire counters sampled into windowed series.
	for _, typ := range []string{`"type":"sweep.start"`, `"type":"sweep.finish"`} {
		if !bytes.Contains(wantEvents, []byte(typ)) {
			t.Errorf("chaos journal carries no %s event:\n%s", typ, wantEvents)
		}
	}
	if !bytes.Contains(wantSamples, []byte(`"wire.attempts"`)) {
		t.Errorf("sampler document carries no wire.attempts series:\n%s", wantSamples)
	}
}

// TestTelemetrySmoke is the end-to-end check `make telemetry-smoke` runs: a
// chaos sweep with the full telemetry surface live — debug server, sampler,
// journal, tracer — scraped mid-run through real HTTP. The Pause hook
// between the two sweeps asserts /metrics parses as Prometheus text and
// covers every registered metric, /statusz answers in both renderings, and
// /samples and /events serve schema-valid documents. With
// TELEMETRY_SMOKE_OUT set, the event journal is left in that directory for
// CI to upload next to the obs-smoke artifacts.
func TestTelemetrySmoke(t *testing.T) {
	outDir := os.Getenv("TELEMETRY_SMOKE_OUT")
	if outDir == "" {
		outDir = t.TempDir()
	} else if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}

	policy := &faultnet.Policy{
		Seed:           99,
		Rate:           0.3,
		MaxConsecutive: 2,
		Sleep:          func(time.Duration) {},
	}
	targets := startServers(t, deviceChains(t, 6), policy)
	clock := fakeClock()
	reg := obs.NewRegistry()

	eventsPath := filepath.Join(outDir, "telemetry_events.jsonl")
	ef, err := obs.WriteTraceFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	journal := obs.NewJournal(ef, clock, 0)
	sampler := obs.NewSampler(reg, obs.SamplerConfig{
		Capacity: 32,
		Interval: time.Second,
		Now:      clock,
	})
	tracer := obs.NewTracer(io.Discard, clock)
	tracer.KeepTail(8)

	addr, err := telemetry.Serve("127.0.0.1:0", obs.Telemetry{
		Cmd: "certscan", Reg: reg, Sampler: sampler, Journal: journal,
		Tracer: tracer, Start: clock(), Now: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(path string) (int, string, http.Header) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	scraped := false
	cfg := scanConfig{
		Targets: targets,
		Workers: 4,
		Repeat:  2,
		Opts: wire.Options{
			AttemptTimeout: 500 * time.Millisecond,
			Retries:        4,
			Seed:           7,
			Sleep:          noSleep,
		},
		Now:     clock,
		Obs:     reg,
		Tracer:  tracer,
		Journal: journal,
		Sampler: sampler,
		Pause: func(time.Duration) {
			// One sweep done, the next not started: scrape the live surface.
			code, body, hdr := fetch("/metrics")
			if code != http.StatusOK {
				t.Fatalf("/metrics: status %d", code)
			}
			if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
				t.Errorf("/metrics content type %q", ct)
			}
			if err := obs.CheckPrometheusText([]byte(body)); err != nil {
				t.Errorf("mid-run /metrics fails the exposition checker: %v\n%s", err, body)
			}
			for _, m := range reg.Snapshot().Metrics {
				if !strings.Contains(body, obs.PromName(m.Name)) {
					t.Errorf("/metrics missing registered metric %s (prom %s)", m.Name, obs.PromName(m.Name))
				}
			}

			code, page, hdr := fetch("/statusz")
			if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "text/html") {
				t.Errorf("/statusz: status %d, content type %q", code, hdr.Get("Content-Type"))
			}
			if !strings.Contains(page, "certscan /statusz") {
				t.Errorf("/statusz page does not name the binary:\n%s", page)
			}
			code, js, _ := fetch("/statusz?format=json")
			if code != http.StatusOK {
				t.Fatalf("/statusz?format=json: status %d", code)
			}
			var doc struct {
				Cmd    string `json:"cmd"`
				Ticks  uint64 `json:"sampler_ticks"`
				Events uint64 `json:"journal_events"`
			}
			if err := json.Unmarshal([]byte(js), &doc); err != nil {
				t.Fatalf("/statusz json: %v\n%s", err, js)
			}
			if doc.Cmd != "certscan" || doc.Ticks == 0 || doc.Events == 0 {
				t.Errorf("/statusz json not live mid-run: %+v", doc)
			}

			code, samples, _ := fetch("/samples")
			if code != http.StatusOK {
				t.Fatalf("/samples: status %d", code)
			}
			if err := obs.ValidateSamples([]byte(samples)); err != nil {
				t.Errorf("mid-run /samples fails schema: %v\n%s", err, samples)
			}

			code, events, _ := fetch("/events")
			if code != http.StatusOK {
				t.Fatalf("/events: status %d", code)
			}
			if !strings.Contains(events, `"sweep.start"`) {
				t.Errorf("/events tail missing the first sweep:\n%s", events)
			}
			scraped = true
		},
	}
	_, summary, err := runSweeps(cfg, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if summary.OK == 0 {
		t.Fatalf("smoke sweep grabbed nothing: %+v", summary)
	}
	if !scraped {
		t.Fatal("pause hook never ran; telemetry endpoints were not scraped mid-run")
	}
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}
	eventsData, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateEvents(eventsData); err != nil {
		t.Errorf("journal artifact fails schema: %v\n%s", err, eventsData)
	}
	for _, typ := range []string{`"sweep.start"`, `"sweep.finish"`} {
		if !bytes.Contains(eventsData, []byte(typ)) {
			t.Errorf("journal artifact missing %s:\n%s", typ, eventsData)
		}
	}
	if err := journal.Err(); err != nil {
		t.Errorf("journal latched a write error: %v", err)
	}
}

// TestDebugEndpointsReachable proves -debug-addr works mid-run: the Pause
// hook between two sweeps fetches /debug/vars and /debug/pprof/ from the
// live debug server and finds the published obs registry.
func TestDebugEndpointsReachable(t *testing.T) {
	reg := obs.NewRegistry()
	addr, err := telemetry.Serve("127.0.0.1:0", obs.Telemetry{Cmd: "certscan", Reg: reg})
	if err != nil {
		t.Fatal(err)
	}

	fetch := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}

	checked := false
	cfg := scanConfig{
		Targets: startServers(t, deviceChains(t, 3), nil),
		Workers: 2,
		Repeat:  2,
		Opts: wire.Options{
			AttemptTimeout: 500 * time.Millisecond,
			Seed:           1,
			Sleep:          noSleep,
		},
		Now: fakeClock(),
		Pause: func(time.Duration) {
			// One sweep done, the next not started: the process is mid-run
			// and the first sweep's counters must already be visible.
			vars := fetch("/debug/vars")
			if !strings.Contains(vars, `"obs"`) {
				t.Errorf("/debug/vars does not publish the obs registry:\n%s", vars)
			}
			if !strings.Contains(vars, "wire.attempts") {
				t.Errorf("/debug/vars obs registry missing live wire.attempts:\n%s", vars)
			}
			if !strings.Contains(fetch("/debug/pprof/"), "goroutine") {
				t.Error("/debug/pprof/ index does not list profiles")
			}
			checked = true
		},
		Obs: reg,
	}
	if _, summary, err := runSweeps(cfg, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	} else if summary.Failed != 0 {
		t.Fatalf("sweep failed: %+v", summary)
	}
	if !checked {
		t.Fatal("pause hook never ran; debug endpoints were not probed mid-run")
	}
}
