package rules_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"securepki/internal/gostatic"
	"securepki/internal/gostatic/rules"
)

// want is one expected finding parsed from a fixture's
// `// want <rule> <message substring>` comment.
type want struct {
	file   string
	line   int
	rule   string
	substr string
}

var wantRe = regexp.MustCompile(`//\s*want\s+(\w+)(?:\s+(.*?))?\s*$`)

// parseWants extracts golden findings from every .go file under dir.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	var out []want
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			out = append(out, want{file: e.Name(), line: line, rule: m[1], substr: m[2]})
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return out
}

// repoConfig loads the repository's repolint.json, the one policy file.
func repoConfig(t *testing.T, loader *gostatic.Loader) *gostatic.Config {
	t.Helper()
	cfg, err := gostatic.LoadConfig(filepath.Join(loader.ModuleRoot, "repolint.json"))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// runFixture loads one fixture package and runs one analyzer over it with
// the repository's config.
func runFixture(t *testing.T, fixtureDir string, an *gostatic.Analyzer) []gostatic.Finding {
	t.Helper()
	loader, err := gostatic.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(".", fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages from %s, want 1", len(pkgs), fixtureDir)
	}
	driver := &gostatic.Driver{Analyzers: []*gostatic.Analyzer{an}, Config: repoConfig(t, loader)}
	return driver.Run(loader, pkgs)
}

// checkGolden compares findings against the fixture's want comments: every
// want must be hit, and every finding must land on a line that has a want
// with the same rule.
func checkGolden(t *testing.T, fixtureDir string, findings []gostatic.Finding, wants []want) {
	t.Helper()
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", fixtureDir)
	}
	for _, w := range wants {
		hit := false
		for _, f := range findings {
			if filepath.Base(f.File) == w.file && f.Line == w.line && f.Rule == w.rule &&
				strings.Contains(f.Message, w.substr) {
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("missing finding %s:%d %s %q\ngot:\n%s", w.file, w.line, w.rule, w.substr, renderFindings(findings))
		}
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if filepath.Base(f.File) == w.file && f.Line == w.line && f.Rule == w.rule {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

func renderFindings(fs []gostatic.Finding) string {
	if len(fs) == 0 {
		return "  (none)"
	}
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

func TestRuleFixtures(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer *gostatic.Analyzer
	}{
		{"testdata/src/detmap", rules.Detmap},
		{"testdata/src/wallclock", rules.Wallclock},
		{"testdata/src/seedrand", rules.Seedrand},
		{"testdata/src/internal/x509lite", rules.Bannedimport},
		{"testdata/src/internal/parallel", rules.Bannedimport},
		{"testdata/src/internal/debugvars", rules.Bannedimport},
		{"testdata/src/internal/obs", rules.Bannedimport},
		{"testdata/src/locksafe", rules.Locksafe},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.ReplaceAll(c.fixture, "/", "_"), func(t *testing.T) {
			findings := runFixture(t, c.fixture, c.analyzer)
			checkGolden(t, c.fixture, findings, parseWants(t, c.fixture))
		})
	}
}

// TestAllowlistSilencesRule proves the repolint.json allow mechanism: the
// wallclock fixture is clean when its path is allowlisted.
func TestAllowlistSilencesRule(t *testing.T) {
	loader, err := gostatic.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(".", "testdata/src/wallclock")
	if err != nil {
		t.Fatal(err)
	}
	cfg := repoConfig(t, loader)
	cfg.Rules["wallclock"] = &gostatic.RuleConfig{Allow: []string{"testdata/src/wallclock"}}
	driver := &gostatic.Driver{Analyzers: []*gostatic.Analyzer{rules.Wallclock}, Config: cfg}
	if findings := driver.Run(loader, pkgs); len(findings) != 0 {
		t.Errorf("allowlisted fixture still reports findings:\n%s", renderFindings(findings))
	}
}

// TestDisabledRule proves rules can be switched off per config.
func TestDisabledRule(t *testing.T) {
	loader, err := gostatic.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(".", "testdata/src/seedrand")
	if err != nil {
		t.Fatal(err)
	}
	cfg := repoConfig(t, loader)
	cfg.Rules["seedrand"] = &gostatic.RuleConfig{Disabled: true}
	driver := &gostatic.Driver{Analyzers: []*gostatic.Analyzer{rules.Seedrand}, Config: cfg}
	if findings := driver.Run(loader, pkgs); len(findings) != 0 {
		t.Errorf("disabled rule still reports findings:\n%s", renderFindings(findings))
	}
}

// TestRepoClean is the contract itself: the full rule battery over the whole
// module (testdata excluded, as in `repolint ./...`) must be silent. Any new
// wall-clock read, unsorted map-ranged output, layering leak or lock bug in
// the production tree fails this test before it can flake a golden test.
func TestRepoClean(t *testing.T) {
	loader, err := gostatic.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	cfg := repoConfig(t, loader)
	pkgs, err := loader.Load(loader.ModuleRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from the module, expected the full tree", len(pkgs))
	}
	driver := &gostatic.Driver{Analyzers: rules.Default(), Config: cfg}
	if findings := driver.Run(loader, pkgs); len(findings) != 0 {
		t.Errorf("repository violates the static-analysis contract:\n%s", renderFindings(findings))
	}
}
