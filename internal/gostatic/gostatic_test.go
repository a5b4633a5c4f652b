package gostatic

import (
	"os"
	"path/filepath"
	"testing"
)

func TestModulePath(t *testing.T) {
	cases := []struct {
		gomod, want string
	}{
		{"module securepki\n\ngo 1.22\n", "securepki"},
		{"// comment\nmodule \"quoted/path\"\ngo 1.22\n", "quoted/path"},
		{"go 1.22\n", ""},
	}
	for _, c := range cases {
		if got := modulePath([]byte(c.gomod)); got != c.want {
			t.Errorf("modulePath(%q) = %q, want %q", c.gomod, got, c.want)
		}
	}
}

func TestMatchPath(t *testing.T) {
	cases := []struct {
		rel, pattern string
		want         bool
	}{
		{"internal/wire", "internal/wire", true},
		{"internal/wire/wire.go", "internal/wire", true},
		{"internal/wireless", "internal/wire", false},
		{"internal/gostatic/rules/testdata/src/internal/x509lite", "internal/x509lite", true},
		{"internal/gostatic/rules/testdata/src/internal/x509lite/x.go", "internal/x509lite", true},
		{"internal", "internal", true},
		{"internal/stats", "internal", true},
		{"cmd/analyze", "internal", false},
		{"internal/stats", "", false},
		{".", "internal", false},
	}
	for _, c := range cases {
		if got := MatchPath(c.rel, c.pattern); got != c.want {
			t.Errorf("MatchPath(%q, %q) = %v, want %v", c.rel, c.pattern, got, c.want)
		}
	}
}

func TestMatchImport(t *testing.T) {
	if !MatchImport("securepki/internal/stats", "securepki") {
		t.Error("module prefix should ban submodule imports")
	}
	if MatchImport("securepki2/internal/stats", "securepki") {
		t.Error("prefix match must respect path-segment boundaries")
	}
	if !MatchImport("crypto/x509", "crypto/x509") {
		t.Error("exact match")
	}
}

func TestIgnoreDirectiveMatches(t *testing.T) {
	d := ignoreDirective{file: "a.go", line: 10, rules: []string{"detmap", "locksafe"}}
	cases := []struct {
		f    Finding
		want bool
	}{
		{Finding{File: "a.go", Line: 10, Rule: "detmap"}, true},
		{Finding{File: "a.go", Line: 11, Rule: "locksafe"}, true},
		{Finding{File: "a.go", Line: 12, Rule: "detmap"}, false},
		{Finding{File: "a.go", Line: 10, Rule: "wallclock"}, false},
		{Finding{File: "b.go", Line: 10, Rule: "detmap"}, false},
	}
	for _, c := range cases {
		if got := d.matches(c.f); got != c.want {
			t.Errorf("matches(%+v) = %v, want %v", c.f, got, c.want)
		}
	}
	star := ignoreDirective{file: "a.go", line: 5, rules: []string{"*"}}
	if !star.matches(Finding{File: "a.go", Line: 5, Rule: "anything"}) {
		t.Error("* should match every rule")
	}
}

// TestLoadConfigTakesFileAsWritten: repolint.json is the one policy. A rule
// the file names is configured exactly as written, and a rule it does not
// name, like every rule under a nil Config, runs everywhere with no
// allowlist.
func TestLoadConfigTakesFileAsWritten(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repolint.json")
	content := `{"rules": {"wallclock": {"allow": ["internal/other"]}, "newrule": {"only": ["cmd"]}}}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	wc := cfg.Rule("wallclock")
	if len(wc.Allow) != 1 || wc.Allow[0] != "internal/other" || len(wc.Only) != 0 {
		t.Errorf("wallclock = %+v, want allow [internal/other] and no only", wc)
	}
	if got := cfg.Rule("newrule").Only; len(got) != 1 || got[0] != "cmd" {
		t.Errorf("newrule only = %v", got)
	}
	var none *Config
	for _, c := range []*Config{cfg, none} {
		rc := c.Rule("bannedimport")
		if rc == nil {
			t.Fatal("Rule must never return nil")
		}
		if rc.Disabled || len(rc.Only) != 0 || len(rc.Allow) != 0 || len(rc.Banned) != 0 {
			t.Errorf("unnamed rule = %+v, want it everywhere with no allowlist", rc)
		}
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing policy file loaded")
	}
}

func TestSortFindingsDeterministic(t *testing.T) {
	fs := []Finding{
		{File: "b.go", Line: 1, Rule: "r"},
		{File: "a.go", Line: 2, Rule: "z"},
		{File: "a.go", Line: 2, Rule: "a"},
		{File: "a.go", Line: 1, Rule: "r"},
	}
	SortFindings(fs)
	want := []Finding{
		{File: "a.go", Line: 1, Rule: "r"},
		{File: "a.go", Line: 2, Rule: "a"},
		{File: "a.go", Line: 2, Rule: "z"},
		{File: "b.go", Line: 1, Rule: "r"},
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Fatalf("order[%d] = %+v, want %+v", i, fs[i], want[i])
		}
	}
}

func TestLoaderRejectsOutsideModule(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadDir(os.TempDir()); err == nil {
		t.Error("LoadDir outside the module tree should fail")
	}
}
