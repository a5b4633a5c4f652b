package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"securepki/internal/certlint"
	"securepki/internal/scanstore"
	"securepki/internal/snapshot"
)

// renderLintResults serialises a lint run to the byte form the smoke test
// compares across worker counts.
func renderLintResults(results []certlint.CertFindings) []byte {
	var b bytes.Buffer
	for _, cf := range results {
		b.WriteString(cf.Fingerprint.String() + "\n")
		for _, f := range cf.Findings {
			b.WriteString("  " + f.String() + "\n")
		}
	}
	return b.Bytes()
}

// TestLintCorpusSmoke is the corpus-scale end-to-end gate wired into
// `make lint-corpus-smoke`: the pipeline's lint stage must produce
// byte-identical findings at workers 1, 4 and 16, and the persisted findings
// column must round-trip every finding.
func TestLintCorpusSmoke(t *testing.T) {
	cfg := equivConfig()
	cfg.Workers = 1
	p, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.LintResults == nil {
		t.Fatal("Run did not populate LintResults")
	}
	if len(p.LintResults) != p.Corpus.NumCerts() {
		t.Fatalf("lint results for %d certs, corpus has %d", len(p.LintResults), p.Corpus.NumCerts())
	}
	want := renderLintResults(p.LintResults)
	if len(want) == 0 {
		t.Fatal("serial lint run produced no output")
	}

	for _, workers := range []int{4, 16} {
		cfg := equivConfig()
		cfg.Workers = workers
		pw, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := renderLintResults(pw.LintResults); !bytes.Equal(got, want) {
			t.Errorf("workers=%d lint output differs from serial run", workers)
		}
	}

	// Persist the findings column and read every finding back.
	var buf bytes.Buffer
	if err := p.WriteLintColumn(&buf); err != nil {
		t.Fatal(err)
	}
	lc, err := snapshot.ReadLintColumn(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lc.Lints, certlint.Default().Infos()) {
		t.Error("column lint table differs from the registry")
	}
	if lc.CertCount() != len(p.LintResults) {
		t.Fatalf("column holds %d certs, want %d", lc.CertCount(), len(p.LintResults))
	}
	for k := 0; k < lc.CertCount(); k++ {
		id, ok := p.Corpus.Lookup(lc.Fingerprint(k))
		if !ok {
			t.Fatalf("column cert %d (%s) is not in the corpus", k, lc.Fingerprint(k))
		}
		cf := p.LintResults[id]
		if cf.Fingerprint != lc.Fingerprint(k) {
			t.Fatalf("column cert %d: LintResults[%d] is %s's", k, id, cf.Fingerprint)
		}
		got := lc.FindingsAt(k)
		if len(got) == 0 && len(cf.Findings) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, cf.Findings) {
			t.Fatalf("column cert %d findings differ:\n%v\nvs\n%v", k, got, cf.Findings)
		}
	}
}

// lintColumn writes a lint run as a column and reads it back.
func lintColumn(t *testing.T, results []certlint.CertFindings) *snapshot.LintColumn {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.WriteLintColumn(&buf, results, certlint.Default().Infos()); err != nil {
		t.Fatal(err)
	}
	lc, err := snapshot.ReadLintColumn(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return lc
}

// lintedPipeline generates, scans and lints streamEquivConfig's world under
// seed, and returns the pipeline with its lint column.
func lintedPipeline(t *testing.T, seed uint64) (*Pipeline, *snapshot.LintColumn) {
	t.Helper()
	p := &Pipeline{Config: streamEquivConfig()}
	p.Config.World.Seed = seed
	if err := p.Generate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Scan(); err != nil {
		t.Fatal(err)
	}
	p.Lint()
	return p, lintColumn(t, p.LintResults)
}

// TestLoadLintColumn: LintResults[i] is certificate i's findings, after Lint
// and after loading the pipeline's own column, which reproduces the lint
// stage's run exactly. A column written for another corpus, one certificate
// short of this one, or one with a certificate this corpus lacks fails with
// an explicit error and leaves LintResults as they were.
func TestLoadLintColumn(t *testing.T) {
	p, own := lintedPipeline(t, 1)
	want := renderLintResults(p.LintResults)
	inCorpusOrder := func(stage string) {
		t.Helper()
		if len(p.LintResults) != p.Corpus.NumCerts() {
			t.Fatalf("after %s: %d results for %d certs", stage, len(p.LintResults), p.Corpus.NumCerts())
		}
		for i, cf := range p.LintResults {
			if cf.Fingerprint != p.Corpus.Cert(scanstore.CertID(i)).Cert.Fingerprint() {
				t.Fatalf("after %s: LintResults[%d] is not certificate %d's", stage, i, i)
			}
		}
	}
	inCorpusOrder("Lint")

	p.LintResults = nil
	if err := p.LoadLintColumn(own); err != nil {
		t.Fatal(err)
	}
	inCorpusOrder("LoadLintColumn")
	if got := renderLintResults(p.LintResults); !bytes.Equal(got, want) {
		t.Fatal("the loaded column differs from the lint stage's run")
	}

	q, other := lintedPipeline(t, 2)
	foreign := append([]certlint.CertFindings{q.LintResults[0]}, p.LintResults[1:]...)
	n := p.Corpus.NumCerts()
	for _, c := range []struct {
		name, err string
		lc        *snapshot.LintColumn
	}{
		{"another seed", "core: lint column", other},
		{"one cert missing", fmt.Sprintf("covers %d certs, the corpus holds %d", n-1, n), lintColumn(t, p.LintResults[1:])},
		{"one cert foreign", fmt.Sprintf("(%s) is not in the corpus", q.LintResults[0].Fingerprint), lintColumn(t, foreign)},
	} {
		before := p.LintResults
		err := p.LoadLintColumn(c.lc)
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.err)
		}
		if &p.LintResults[0] != &before[0] || len(p.LintResults) != len(before) {
			t.Errorf("%s: the refused column replaced LintResults", c.name)
		}
	}
}

// TestWriteLintColumnBeforeLint pins the stage-ordering error.
func TestWriteLintColumnBeforeLint(t *testing.T) {
	p := &Pipeline{Config: SmallConfig()}
	if err := p.WriteLintColumn(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteLintColumn before Lint did not error")
	}
}
