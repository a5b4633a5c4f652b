package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"securepki/internal/certlint"
	"securepki/internal/obs"
)

var (
	pipeOnce sync.Once
	pipe     *Pipeline
	pipeErr  error
)

// pipeline is the shared SmallConfig run, with a metric registry so tests
// can see what the reporting layer computes.
func pipeline(t *testing.T) *Pipeline {
	t.Helper()
	pipeOnce.Do(func() {
		cfg := SmallConfig()
		cfg.Obs = obs.NewRegistry()
		pipe, pipeErr = Run(cfg)
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe
}

func TestRunProducesAllArtifacts(t *testing.T) {
	p := pipeline(t)
	if p.World == nil || p.Corpus == nil || p.Truth == nil || p.Dataset == nil ||
		p.Linker == nil || p.Tracker == nil {
		t.Fatal("pipeline artefacts missing")
	}
	if len(p.ValidationCounts) == 0 {
		t.Error("no validation counts")
	}
	if p.Corpus.NumCerts() == 0 || p.Corpus.NumScans() == 0 {
		t.Error("empty corpus")
	}
	if len(p.LinkResult.Groups) == 0 {
		t.Error("no linked groups")
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	p := pipeline(t)
	seen := map[string]bool{}
	for _, exp := range Experiments() {
		if exp.ID == "" || exp.Title == "" || exp.Paper == "" || exp.Run == nil {
			t.Fatalf("experiment %q incomplete", exp.ID)
		}
		if seen[exp.ID] {
			t.Fatalf("duplicate experiment ID %q", exp.ID)
		}
		seen[exp.ID] = true
		out := exp.Run(p)
		if strings.TrimSpace(out) == "" {
			t.Errorf("experiment %s produced no output", exp.ID)
		}
	}
	// Every table and figure of the evaluation must be covered.
	for _, want := range []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11",
		"table1", "table2", "table3", "table4", "table5", "table6",
		"s41", "s42", "s53", "s644", "s72", "s73",
	} {
		if !seen[want] {
			t.Errorf("experiment %s missing from registry", want)
		}
	}
}

// TestReportingRecomputesNothing: Summarize and the experiment rows read
// what the stages computed, so running them all moves no stable metric. The
// linker's counters are the witness that nothing links again: they stay at
// what Link left, 18,435 candidate groups and 1,492 confirmed.
func TestReportingRecomputesNothing(t *testing.T) {
	p := pipeline(t)
	reg := p.Config.Obs
	before := reg.Snapshot().Stable().EncodeJSON()
	Summarize(p)
	for _, exp := range Experiments() {
		exp.Run(p)
	}
	if after := reg.Snapshot().Stable().EncodeJSON(); !bytes.Equal(after, before) {
		t.Errorf("reporting moved the metrics:\n%s\nvs:\n%s", before, after)
	}
	for name, want := range map[string]int64{"linking.candidates": 18435, "linking.groups.confirmed": 1492} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestLintRowReadsLintStage: the lint row surveys the lint stage's findings,
// so a LintConfig that disables self_signed takes it out of the row, and
// every survey count equals a count taken over LintResults. The lint stage
// reruns on a copy of the shared pipeline, which stays as Run left it.
func TestLintRowReadsLintStage(t *testing.T) {
	q := *pipeline(t)
	q.Config.Obs = nil
	q.Config.LintConfig = &certlint.Config{Lints: map[string]*certlint.LintConfig{"self_signed": {Disabled: true}}}
	q.Lint()

	type split struct{ valid, invalid int }
	want := map[string]split{}
	for _, cf := range q.LintResults {
		id, ok := q.Corpus.Lookup(cf.Fingerprint)
		if !ok || len(q.Dataset.Index.Sightings(id)) == 0 {
			continue
		}
		invalid := q.Corpus.Cert(id).Status.Invalid()
		for _, f := range cf.Findings {
			c := want[f.LintID]
			if invalid {
				c.invalid++
			} else {
				c.valid++
			}
			want[f.LintID] = c
		}
	}
	if len(want) == 0 {
		t.Fatal("lint stage found nothing")
	}
	if _, ok := want["self_signed"]; ok {
		t.Fatal("lint stage reported self_signed, which the config disables")
	}
	got := map[string]split{}
	for _, r := range q.Dataset.LintSurvey(q.LintResults) {
		got[r.LintID] = split{r.ValidCount, r.InvalidCount}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("survey counts %v, lint stage's %v", got, want)
	}
	if out := runLint(&q); strings.Contains(out, "self_signed") {
		t.Errorf("lint row reports the disabled self_signed linter:\n%s", out)
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("fig3"); !ok {
		t.Error("fig3 not found")
	}
	if _, ok := Find("nonexistent"); ok {
		t.Error("bogus ID found")
	}
}

func TestStagesRequireOrder(t *testing.T) {
	p := &Pipeline{Config: SmallConfig()}
	if err := p.Scan(); err == nil {
		t.Error("Scan before Generate accepted")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := SmallConfig()
	cfg.World.NumDevices = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero devices accepted")
	}
}

func TestWritePlotData(t *testing.T) {
	p := pipeline(t)
	dir := t.TempDir()
	if err := WritePlotData(p, dir); err != nil {
		t.Fatal(err)
	}
	names := []string{"fig1.dat", "fig2.dat", "fig3.dat", "fig4.dat", "fig5.dat", "fig6.dat", "fig7.dat", "fig8.dat", "fig10.dat", "fig11.dat", "plots.gp"}
	written := map[string][]byte{}
	before := map[string]os.FileInfo{}
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
		written[name] = data
		if before[name], err = os.Stat(path); err != nil {
			t.Fatal(err)
		}
	}
	// A second call over the same directory replaces every file by rename,
	// never rewriting one in place, and leaves no temp file behind.
	if err := WritePlotData(p, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		after, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if os.SameFile(before[name], after) {
			t.Errorf("%s was rewritten in place", name)
		}
		if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, written[name]) {
			t.Errorf("%s differs after the second write (err %v)", name, err)
		}
	}
	if tmp, err := filepath.Glob(filepath.Join(dir, "*.tmp-*")); err != nil || len(tmp) != 0 {
		t.Errorf("temp files left behind: %v (err %v)", tmp, err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != len(names) {
		t.Errorf("%d entries in the plot dir, want %d (err %v)", len(entries), len(names), err)
	}
	// Data files must be numeric rows after the header.
	data, _ := os.ReadFile(filepath.Join(dir, "fig3.dat"))
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 10 {
		t.Fatalf("fig3.dat has %d lines", len(lines))
	}
	var x, v, inv float64
	if _, err := fmt.Sscanf(lines[1], "%g %g %g", &x, &v, &inv); err != nil {
		t.Errorf("fig3.dat row unparseable: %q (%v)", lines[1], err)
	}
	if inv < 0 || inv > 1 || v < 0 || v > 1 {
		t.Errorf("CDF values out of range: %v %v", v, inv)
	}
}

func TestSummarize(t *testing.T) {
	p := pipeline(t)
	s := Summarize(p)
	if s.UniqueCerts == 0 || s.Scans == 0 || s.Devices == 0 {
		t.Fatal("summary missing scale")
	}
	if s.InvalidFraction < 0.7 || s.InvalidFraction > 1 {
		t.Errorf("invalid fraction = %v", s.InvalidFraction)
	}
	if s.LinkedCerts == 0 || s.LinkedGroups == 0 {
		t.Error("summary missing linking outcome")
	}
	if s.PKASConsistency < 0.9 {
		t.Errorf("PK AS consistency = %v", s.PKASConsistency)
	}
	if len(s.RejectedFields) == 0 {
		t.Error("no rejected fields in summary")
	}
	if s.TrackableWithLinking <= s.TrackableBaseline {
		t.Error("summary trackable gain missing")
	}
	var buf strings.Builder
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatalf("summary JSON invalid: %v", err)
	}
	if back.UniqueCerts != s.UniqueCerts {
		t.Error("JSON round trip lost data")
	}
}
