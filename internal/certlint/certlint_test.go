package certlint

import (
	"crypto/ed25519"
	"math/big"
	"testing"
	"time"

	"securepki/internal/x509lite"
)

var serial int64 = 500

// RunAll lints one certificate against the default registry with optional
// population context.
func RunAll(c *x509lite.Certificate, ctx *Context) []Finding {
	return Default().RunCert(c, ctx, nil)
}

func lintCert(t *testing.T, mutate func(*x509lite.Template)) *x509lite.Certificate {
	t.Helper()
	serial++
	seed := make([]byte, ed25519.SeedSize)
	seed[0], seed[1] = byte(serial), byte(serial>>8)
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	tmpl := &x509lite.Template{
		Version:      3,
		SerialNumber: big.NewInt(serial),
		Subject:      x509lite.Name{CommonName: "device.example"},
		Issuer:       x509lite.Name{CommonName: "device.example"},
		NotBefore:    time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC),
		DNSNames:     []string{"device.example"},
		OCSPServer:   []string{"http://ocsp.example"},
	}
	if mutate != nil {
		mutate(tmpl)
	}
	der, err := x509lite.CreateCertificate(tmpl, pub, priv)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509lite.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

func hasLint(findings []Finding, id string) bool {
	for _, f := range findings {
		if f.LintID == id {
			return true
		}
	}
	return false
}

func TestCleanCertTriggersOnlyBenignInfo(t *testing.T) {
	c := lintCert(t, nil)
	findings := RunAll(c, nil)
	// The fixture is self-signed and (like the devicesim population) carries
	// no KeyUsage extension; both are INFO-grade observations. Anything else
	// on a clean certificate is a linter bug.
	benign := map[string]bool{"self_signed": true, "key_usage_missing": true}
	for _, f := range findings {
		if !benign[f.LintID] {
			t.Errorf("clean cert triggered %s", f)
		}
		if f.Severity != Info {
			t.Errorf("benign finding %s has severity %s, want INFO", f.LintID, f.Severity)
		}
	}
}

func TestNegativeValidity(t *testing.T) {
	c := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.NotAfter = tmpl.NotBefore.AddDate(0, 0, -100)
	})
	if !hasLint(RunAll(c, nil), "validity_negative") {
		t.Error("negative validity not flagged")
	}
}

func TestExcessiveValidityAndY3000(t *testing.T) {
	c := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.NotAfter = time.Date(3010, 1, 1, 0, 0, 0, 0, time.UTC)
	})
	fs := RunAll(c, nil)
	if !hasLint(fs, "validity_excessive") || !hasLint(fs, "validity_beyond_y3000") {
		t.Errorf("far-future validity not flagged: %v", fs)
	}
}

func TestEmptySubject(t *testing.T) {
	c := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.Subject = x509lite.Name{}
	})
	if !hasLint(RunAll(c, nil), "subject_empty") {
		t.Error("empty subject not flagged")
	}
}

func TestPrivateAndPublicIPSubjects(t *testing.T) {
	cases := []struct {
		cn   string
		lint string
	}{
		{"192.168.1.1", "subject_private_ip"},
		{"10.0.0.1", "subject_private_ip"},
		{"172.16.0.1", "subject_private_ip"},
		{"172.31.255.1", "subject_private_ip"},
		{"8.8.8.8", "subject_ip"},
		{"172.32.0.1", "subject_ip"}, // just outside RFC 1918
	}
	for _, tc := range cases {
		c := lintCert(t, func(tmpl *x509lite.Template) {
			tmpl.Subject.CommonName = tc.cn
		})
		fs := RunAll(c, nil)
		if !hasLint(fs, tc.lint) {
			t.Errorf("CN %s: %s not flagged (%v)", tc.cn, tc.lint, fs)
		}
	}
	// Non-IP CN must trigger neither.
	c := lintCert(t, func(tmpl *x509lite.Template) { tmpl.Subject.CommonName = "fritz.box" })
	fs := RunAll(c, nil)
	if hasLint(fs, "subject_ip") || hasLint(fs, "subject_private_ip") {
		t.Error("hostname CN flagged as IP")
	}
}

func TestMissingSANAndRevocation(t *testing.T) {
	c := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.DNSNames = nil
		tmpl.OCSPServer = nil
	})
	fs := RunAll(c, nil)
	if !hasLint(fs, "san_missing") {
		t.Error("missing SAN not flagged")
	}
	if !hasLint(fs, "revocation_missing") {
		t.Error("missing revocation info not flagged")
	}
	// A CA without SAN is fine.
	ca := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.DNSNames = nil
		tmpl.IsCA = true
		tmpl.IncludeBasicConstraints = true
	})
	if hasLint(RunAll(ca, nil), "san_missing") {
		t.Error("CA flagged for missing SAN")
	}
}

func TestVersionLints(t *testing.T) {
	bogus := lintCert(t, func(tmpl *x509lite.Template) { tmpl.Version = 13 })
	if !hasLint(RunAll(bogus, nil), "version_bogus") {
		t.Error("version 13 not flagged")
	}
	v1 := lintCert(t, func(tmpl *x509lite.Template) { tmpl.Version = 1 })
	fs := RunAll(v1, nil)
	if !hasLint(fs, "version_v1_leaf") {
		t.Error("v1 not flagged")
	}
	if hasLint(fs, "version_bogus") {
		t.Error("v1 flagged as bogus")
	}
}

func TestAncientNotBefore(t *testing.T) {
	c := lintCert(t, func(tmpl *x509lite.Template) {
		tmpl.NotBefore = time.Date(2000, 5, 1, 0, 0, 0, 0, time.UTC)
		tmpl.NotAfter = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	})
	if !hasLint(RunAll(c, nil), "notbefore_ancient") {
		t.Error("firmware-epoch NotBefore not flagged")
	}
}

func TestSharedKeyNeedsContext(t *testing.T) {
	c := lintCert(t, nil)
	if hasLint(RunAll(c, nil), "key_shared") {
		t.Error("key_shared fired without context")
	}
	ctx := &Context{KeyCount: map[x509lite.Fingerprint]int{c.PublicKeyFingerprint(): 3}}
	if !hasLint(RunAll(c, ctx), "key_shared") {
		t.Error("key_shared not fired with sharing context")
	}
	ctx = &Context{KeyCount: map[x509lite.Fingerprint]int{c.PublicKeyFingerprint(): 1}}
	if hasLint(RunAll(c, ctx), "key_shared") {
		t.Error("key_shared fired for unique key")
	}
}

func TestLintIDsUniqueAndDescribed(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range Default().Linters() {
		if l.ID == "" || l.Describe == "" || l.Check == nil || l.Version < 1 {
			t.Fatalf("incomplete lint %+v", l.ID)
		}
		if seen[l.ID] {
			t.Fatalf("duplicate lint ID %s", l.ID)
		}
		seen[l.ID] = true
	}
	if n := len(seen); n < 15 {
		t.Fatalf("default battery has %d linters, want >= 15", n)
	}
}

func TestSeverityStrings(t *testing.T) {
	if Info.String() != "INFO" || Warn.String() != "WARN" || Error.String() != "ERROR" || Fatal.String() != "FATAL" || Severity(9).String() != "UNKNOWN" {
		t.Error("severity labels wrong")
	}
	for _, s := range []Severity{Info, Warn, Error, Fatal} {
		got, ok := ParseSeverity(s.String())
		if !ok || got != s {
			t.Errorf("ParseSeverity(%q) = %v, %v", s.String(), got, ok)
		}
	}
	if _, ok := ParseSeverity("NOTICE"); ok {
		t.Error("pre-migration label NOTICE must not parse")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{LintID: "x", Version: 2, Severity: Error, Detail: "boom"}
	if f.String() != "ERROR x/v2: boom" {
		t.Errorf("Finding.String() = %q", f.String())
	}
}
