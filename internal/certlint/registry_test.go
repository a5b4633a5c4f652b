package certlint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"securepki/internal/x509lite"
)

func okLinter(id string) Linter {
	return Linter{
		ID: id, Version: 1, Severity: Info, Describe: "test linter",
		Check: func(dst []byte, _ *x509lite.Certificate, _ *Context) ([]byte, bool) { return dst, false },
	}
}

func TestRegisterContract(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(okLinter("a")); err != nil {
		t.Fatalf("valid linter rejected: %v", err)
	}

	bad := []struct {
		name   string
		mutate func(*Linter)
	}{
		{"empty ID", func(l *Linter) { l.ID = "" }},
		{"duplicate ID", func(l *Linter) { l.ID = "a" }},
		{"zero version", func(l *Linter) { l.Version = 0 }},
		{"negative version", func(l *Linter) { l.Version = -3 }},
		{"severity out of range", func(l *Linter) { l.Severity = Severity(9) }},
		{"no description", func(l *Linter) { l.Describe = "" }},
		{"no check", func(l *Linter) { l.Check = nil }},
	}
	for _, tc := range bad {
		l := okLinter("b")
		tc.mutate(&l)
		if err := r.Register(l); err == nil {
			t.Errorf("%s: Register accepted invalid linter", tc.name)
		}
	}
	if r.Len() != 1 {
		t.Fatalf("registry has %d linters after rejections, want 1", r.Len())
	}
}

func TestLintersSortedAndLookup(t *testing.T) {
	r := NewRegistry()
	for _, id := range []string{"zz", "aa", "mm"} {
		if err := r.Register(okLinter(id)); err != nil {
			t.Fatal(err)
		}
	}
	ls := r.Linters()
	if ls[0].ID != "aa" || ls[1].ID != "mm" || ls[2].ID != "zz" {
		t.Errorf("Linters() not ID-sorted: %v %v %v", ls[0].ID, ls[1].ID, ls[2].ID)
	}
	infos := r.Infos()
	for i := range ls {
		if infos[i].ID != ls[i].ID {
			t.Errorf("Infos()[%d] = %s, want %s", i, infos[i].ID, ls[i].ID)
		}
	}
	if _, ok := r.Lookup("mm"); !ok {
		t.Error("Lookup missed a registered linter")
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("Lookup found an unregistered linter")
	}
}

func TestProfileParseRoundTrip(t *testing.T) {
	names := []string{
		"leaf", "subordinate", "root", "router", "storage", "vpn",
		"firewall", "camera", "remote-admin", "other-device", "unknown-device",
	}
	for _, n := range names {
		p, ok := ParseProfile(n)
		if !ok || p == ProfileAll {
			t.Errorf("ParseProfile(%q) = %v, %v", n, p, ok)
			continue
		}
		if p.String() != n {
			t.Errorf("Profile %q round-trips as %q", n, p.String())
		}
	}
	if p, ok := ParseProfile("all"); !ok || p != ProfileAll {
		t.Errorf("ParseProfile(all) = %v, %v", p, ok)
	}
	if ProfileAll.String() != "all" {
		t.Errorf("zero mask renders as %q", ProfileAll.String())
	}
	if _, ok := ParseProfile("toaster"); ok {
		t.Error("unknown profile name parsed")
	}
	mask := ProfileLeaf | ProfileVPN
	if got := mask.String(); got != "leaf,vpn" {
		t.Errorf("mask renders as %q, want leaf,vpn", got)
	}
}

func TestProfilesOf(t *testing.T) {
	leaf := lintCert(t, nil)
	if p := ProfilesOf(leaf); p&ProfileLeaf == 0 {
		t.Errorf("plain cert profiles = %s, want leaf", p)
	}
	root := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.IsCA = true
		tmpl.IncludeBasicConstraints = true
	})
	if p := ProfilesOf(root); p&ProfileRoot == 0 {
		t.Errorf("self-issued CA profiles = %s, want root", p)
	}
	sub := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.IsCA = true
		tmpl.IncludeBasicConstraints = true
		tmpl.Issuer = x509lite.Name{CommonName: "parent"}
	})
	if p := ProfilesOf(sub); p&ProfileSubordinate == 0 {
		t.Errorf("intermediate CA profiles = %s, want subordinate", p)
	}

	vpn := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.Subject.CommonName = "SecureGate VPN 1000"
		tmpl.Issuer = tmpl.Subject
	})
	if p := ProfilesOf(vpn); p&ProfileVPN == 0 {
		t.Errorf("VPN cert profiles = %s, want vpn", p)
	}
	router := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.Subject.CommonName = "203.0.113.7"
		tmpl.Issuer = tmpl.Subject
		tmpl.DNSNames = nil
	})
	if p := ProfilesOf(router); p&ProfileRouter == 0 {
		t.Errorf("bare-IP cert profiles = %s, want router fallback", p)
	}
	unknown := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.Subject.CommonName = "device.example"
	})
	if p := ProfilesOf(unknown); p&ProfileUnknownDevice == 0 {
		t.Errorf("unmatched cert profiles = %s, want unknown-device", p)
	}
}

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "certlint.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestConfigDisabled(t *testing.T) {
	cfg, err := LoadConfig(writeConfig(t, `{"lints": {"self_signed": {"disabled": true}}}`))
	if err != nil {
		t.Fatal(err)
	}
	c := lintCert(t, nil)
	for _, f := range Default().RunCert(c, nil, cfg) {
		if f.LintID == "self_signed" {
			t.Error("disabled lint still fired")
		}
	}
}

func TestConfigOnlyRescopesProfiles(t *testing.T) {
	// Restrict san_missing to root CAs; the SAN-less leaf must stop firing.
	cfg, err := LoadConfig(writeConfig(t, `{"lints": {"san_missing": {"only": ["root"]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	leaf := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.DNSNames = nil
	})
	if hasLint(Default().RunCert(leaf, nil, nil), "san_missing") != true {
		t.Fatal("fixture does not trigger san_missing unconfigured")
	}
	if hasLint(Default().RunCert(leaf, nil, cfg), "san_missing") {
		t.Error("only=[root] still lints a leaf")
	}
}

func TestConfigAllowSuppresses(t *testing.T) {
	cfg, err := LoadConfig(writeConfig(t, `{"lints": {"subject_empty": {"allow": ["O=AVM"]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	// Empty subject, issuer O=AVM: suppressed via the issuer name.
	c := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.Subject = x509lite.Name{}
		tmpl.Issuer = x509lite.Name{Organization: "AVM"}
	})
	if hasLint(Default().RunCert(c, nil, cfg), "subject_empty") {
		t.Error("allowlisted issuer still reported")
	}
	// A different issuer is still reported.
	other := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.Subject = x509lite.Name{}
		tmpl.Issuer = x509lite.Name{Organization: "Other"}
	})
	if !hasLint(Default().RunCert(other, nil, cfg), "subject_empty") {
		t.Error("non-allowlisted issuer suppressed")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := LoadConfig(writeConfig(t, `{"lints": {"x": {"only": ["toaster"]}}}`)); err == nil {
		t.Error("unknown profile name accepted")
	}
	if _, err := LoadConfig(writeConfig(t, `{"lints": {"x": {"unknown_key": 1}}}`)); err == nil {
		t.Error("unknown config key accepted")
	}
	if _, err := LoadConfig(writeConfig(t, `{nope`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	cfg, err := LoadConfig("")
	if err != nil || len(cfg.Lints) != 0 {
		t.Errorf("empty path: cfg=%+v err=%v", cfg, err)
	}
}

func TestFindingsSortedWithinCert(t *testing.T) {
	// A maximally broken cert triggers many linters; findings must come out
	// ordered by (LintID, Severity).
	c := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.Subject = x509lite.Name{}
		tmpl.Issuer = x509lite.Name{}
		tmpl.DNSNames = nil
		tmpl.OCSPServer = nil
		tmpl.NotAfter = tmpl.NotBefore.AddDate(0, 0, -10)
	})
	fs := RunAll(c, nil)
	if len(fs) < 4 {
		t.Fatalf("broken fixture triggered only %d findings", len(fs))
	}
	for i := 1; i < len(fs); i++ {
		a, b := fs[i-1], fs[i]
		if a.LintID > b.LintID || (a.LintID == b.LintID && a.Severity > b.Severity) {
			t.Errorf("findings out of order: %s before %s", a, b)
		}
	}
	if strings.Compare(fs[0].LintID, fs[len(fs)-1].LintID) > 0 {
		t.Error("first finding sorts after last")
	}
}

// TestSharedKeys: the census keeps exactly the keys carried more than once,
// with their counts, whatever the order the certificates come in.
func TestSharedKeys(t *testing.T) {
	key := func(k int) x509lite.Fingerprint { return x509lite.FingerprintBytes([]byte{byte(k)}) }
	carried := []int{3, 1, 3, 4, 2, 3, 4, 5}
	got := SharedKeys(len(carried), func(i int) x509lite.Fingerprint { return key(carried[i]) })
	want := map[x509lite.Fingerprint]int{key(3): 3, key(4): 2}
	if len(got) != len(want) || got[key(3)] != 3 || got[key(4)] != 2 {
		t.Fatalf("SharedKeys = %v, want %v", got, want)
	}
	if n := len(SharedKeys(0, nil)); n != 0 {
		t.Fatalf("empty census holds %d keys", n)
	}
}
