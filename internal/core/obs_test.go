package core

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"securepki/internal/obs"
)

// obsFakeClock advances one second per call from a fixed epoch so span
// durations are deterministic.
func obsFakeClock() func() time.Time {
	t := time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

// TestPipelineObsDeterministic: a full instrumented run produces the same
// metrics document AND the same trace bytes at workers 1 and 4 — stage
// counters are worker-independent, and the per-stage span count (and so
// the fake-clock call count) does not depend on scheduling. The streamed
// build's metrics, trace and journal obey the same rule.
func TestPipelineObsDeterministic(t *testing.T) {
	render := func(workers int) (metrics, trace []byte) {
		reg := obs.NewRegistry()
		var traceBuf bytes.Buffer
		cfg := equivConfig()
		cfg.Workers = workers
		cfg.Obs = reg
		cfg.Tracer = obs.NewTracer(&traceBuf, obsFakeClock())
		if _, err := Run(cfg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return reg.Snapshot().EncodeJSON(), traceBuf.Bytes()
	}
	wantMetrics, wantTrace := render(1)
	gotMetrics, gotTrace := render(4)
	if !bytes.Equal(gotMetrics, wantMetrics) {
		t.Errorf("metrics differ between workers 1 and 4:\n%s\nvs:\n%s", wantMetrics, gotMetrics)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("trace differs between workers 1 and 4:\n%s\nvs:\n%s", wantTrace, gotTrace)
	}
	if err := obs.ValidateMetrics(wantMetrics); err != nil {
		t.Fatalf("pipeline metrics fail schema: %v", err)
	}
	if err := obs.ValidateTrace(wantTrace); err != nil {
		t.Fatalf("pipeline trace fails schema: %v", err)
	}
	// Every stage span must be present, in pipeline order.
	text := string(wantTrace)
	last := -1
	for _, name := range []string{"core.generate", "core.scan", "core.validate", "core.lint", "core.link", "core.track"} {
		i := strings.Index(text, `"name":"`+name+`"`)
		if i < 0 {
			t.Fatalf("stage span %s missing from trace:\n%s", name, text)
		}
		if i < last {
			t.Fatalf("stage span %s out of order", name)
		}
		last = i
	}
	// Spot-check the counters cross-reference the pipeline artefacts.
	reg := obs.NewRegistry()
	cfg := equivConfig()
	cfg.Obs = reg
	p, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("core.corpus.certs").Value(); got != int64(p.Corpus.NumCerts()) {
		t.Errorf("core.corpus.certs = %d, corpus has %d", got, p.Corpus.NumCerts())
	}
	if got := reg.Counter("core.link.eligible").Value(); got != int64(p.LinkResult.EligibleCerts) {
		t.Errorf("core.link.eligible = %d, result says %d", got, p.LinkResult.EligibleCerts)
	}
	if got := reg.Counter("core.validate.chain_memo.misses").Value(); got <= 0 {
		t.Errorf("core.validate.chain_memo.misses = %d, want > 0", got)
	}
	if got := reg.Counter("linking.candidates").Value(); got <= 0 {
		t.Errorf("linking.candidates = %d, want > 0", got)
	}

	// The streamed build, on a budget small enough that chunks spill, keeps
	// the same contract for its stable metrics, its trace and its journal,
	// which carries the five stage.start events in stage order, one spill
	// event per chunk spill and the lint column's lintcol.write.
	streamRender := func(workers int) (out [3][]byte, stats *StreamStats) {
		reg := obs.NewRegistry()
		var traceBuf, journalBuf bytes.Buffer
		cfg := equivConfig()
		cfg.Workers, cfg.Scan.Workers = workers, workers
		cfg.Obs = reg
		cfg.Tracer = obs.NewTracer(&traceBuf, obsFakeClock())
		cfg.Journal = obs.NewJournal(&journalBuf, obsFakeClock(), 0)
		cfg.Stream = StreamConfig{ChunkSize: 128, MemBudget: 1 << 16, SpillDir: t.TempDir()}
		stats, err := StreamSnapshot(cfg, true, io.Discard, io.Discard)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return [3][]byte{reg.Snapshot().Stable().EncodeJSON(), traceBuf.Bytes(), journalBuf.Bytes()}, stats
	}
	want, stats := streamRender(1)
	got, _ := streamRender(4)
	for i, what := range []string{"metrics", "trace", "journal"} {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("streamed %s differs between workers 1 and 4:\n%s\nvs:\n%s", what, want[i], got[i])
		}
	}
	wantJournal := want[2]
	if len(wantJournal) == 0 {
		t.Fatal("streamed build journaled no events")
	}
	if err := obs.ValidateEvents(wantJournal); err != nil {
		t.Fatalf("streamed journal fails schema: %v", err)
	}
	if stats.Spills == 0 {
		t.Fatal("64 KiB budget spilled no chunk")
	}
	var stages []string
	spills, lintcols := 0, 0
	for _, line := range bytes.Split(bytes.TrimSpace(wantJournal), []byte("\n")) {
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		switch ev.Type {
		case "stage.start":
			stages = append(stages, ev.Attrs["stage"])
		case "spill":
			spills++
		case "lintcol.write":
			lintcols++
		}
	}
	wantStages := []string{"core.generate", "core.scan", "core.replay", "core.snapshot", "core.lint"}
	if !reflect.DeepEqual(stages, wantStages) {
		t.Errorf("stage.start events %v, want %v", stages, wantStages)
	}
	if spills != stats.Spills {
		t.Errorf("%d spill events for %d chunk spills", spills, stats.Spills)
	}
	if lintcols != 1 {
		t.Errorf("%d lintcol.write events, want 1", lintcols)
	}
}

// TestPipelineRunsWithoutObs: the nil-registry / nil-tracer path (the
// default for every existing caller) stays a true no-op.
func TestPipelineRunsWithoutObs(t *testing.T) {
	cfg := equivConfig()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}
