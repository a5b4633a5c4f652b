package analysis

import (
	"crypto/ed25519"
	"math/big"
	"reflect"
	"strings"
	"testing"
	"time"

	"securepki/internal/certlint"
	"securepki/internal/netsim"
	"securepki/internal/scanstore"
	"securepki/internal/truststore"
	"securepki/internal/x509lite"
)

// lintRun lints the whole fixture corpus with the default registry.
func lintRun(t *testing.T, d *Dataset, workers int) []certlint.CertFindings {
	t.Helper()
	certs := make([]*x509lite.Certificate, 0, d.Corpus.NumCerts())
	ctx := &certlint.Context{KeyCount: make(map[x509lite.Fingerprint]int)}
	for _, rec := range d.Corpus.Certs() {
		certs = append(certs, rec.Cert)
		ctx.KeyCount[rec.Cert.PublicKeyFingerprint()]++
	}
	return certlint.Default().RunCorpus(certs, ctx, certlint.Options{Workers: workers})
}

func TestLintCutsShape(t *testing.T) {
	d := dataset(t)
	rep := d.LintCuts(lintRun(t, d, 4), 5)

	if rep.Certs == 0 || rep.Findings == 0 {
		t.Fatalf("empty report: %d certs, %d findings", rep.Certs, rep.Findings)
	}
	if rep.Findings < rep.Certs {
		t.Errorf("fewer findings (%d) than flagged certs (%d)", rep.Findings, rep.Certs)
	}
	sevSum := 0
	for _, n := range rep.BySeverity {
		sevSum += n
	}
	if sevSum != rep.Findings {
		t.Errorf("severity counts sum to %d, want %d", sevSum, rep.Findings)
	}

	// Device-class table is complete: every flagged cert lands in exactly one
	// class, and every label is a known Table 4 class.
	known := map[string]bool{
		ClassRouter: true, ClassUnknown: true, ClassVPN: true, ClassStorage: true,
		ClassRemoteAdmin: true, ClassFirewall: true, ClassIPCamera: true, ClassOther: true,
	}
	classCerts := 0
	for _, row := range rep.ByDeviceClass {
		if !known[row.Label] {
			t.Errorf("unknown device class %q", row.Label)
		}
		if row.TopLint == "" || row.TopLintN == 0 {
			t.Errorf("class %q has no top lint", row.Label)
		}
		classCerts += row.Certs
	}
	if classCerts != rep.Certs {
		t.Errorf("device classes cover %d certs, want %d", classCerts, rep.Certs)
	}

	if len(rep.ByIssuer) == 0 || len(rep.ByIssuer) > 5 {
		t.Fatalf("issuer rows = %d, want 1..5", len(rep.ByIssuer))
	}
	if len(rep.ByAS) == 0 || len(rep.ByAS) > 5 {
		t.Fatalf("AS rows = %d, want 1..5", len(rep.ByAS))
	}
	// netsim AS labels render as "#ASN Name (CC)".
	if !strings.HasPrefix(rep.ByAS[0].Label, "#") {
		t.Errorf("AS label = %q", rep.ByAS[0].Label)
	}
	// Tables are sorted by findings desc.
	for _, rows := range [][]LintCutRow{rep.ByDeviceClass, rep.ByIssuer, rep.ByAS} {
		for i := 1; i < len(rows); i++ {
			if rows[i-1].Findings < rows[i].Findings {
				t.Errorf("rows unsorted: %q (%d) before %q (%d)",
					rows[i-1].Label, rows[i-1].Findings, rows[i].Label, rows[i].Findings)
			}
		}
	}

	out := FormatLintCuts(rep)
	for _, want := range []string{"By device class", "By issuer", "By AS", "INFO"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// TestLintCutsDeterministic pins that the cuts are identical whatever worker
// count produced the findings — the whole chain is order-independent.
func TestLintCutsDeterministic(t *testing.T) {
	d := dataset(t)
	serial := d.LintCuts(lintRun(t, d, 1), 5)
	parallel := d.LintCuts(lintRun(t, d, 8), 5)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("lint cuts differ between serial and parallel lint runs")
	}
}

// TestLintCutsExcludesUnobserved pins the join rule: findings for a
// certificate the corpus holds but never saw on the wire do not count. The
// fixture's corpus is copied with one unobserved certificate after it, whose
// entry in the run carries a FATAL finding.
func TestLintCutsExcludesUnobserved(t *testing.T) {
	d := dataset(t)
	results := lintRun(t, d, 4)
	base := d.LintCuts(results, 5)

	corpus := scanstore.NewCorpus()
	for _, rec := range d.Corpus.Certs() {
		corpus.Cert(corpus.Intern(rec.Cert)).Status = rec.Status
	}
	for _, sc := range d.Corpus.Scans() {
		if _, err := corpus.AddScan(sc.Operator, sc.Time, sc.Obs); err != nil {
			t.Fatal(err)
		}
	}
	unseen := surveyCert(t, 7, nil)
	if id := corpus.Intern(unseen); int(id) != len(results) {
		t.Fatalf("unobserved certificate interned as %d, want %d", id, len(results))
	}
	results = append(results, certlint.CertFindings{Fingerprint: unseen.Fingerprint(),
		Findings: []certlint.Finding{{LintID: "ghost", Version: 1, Severity: certlint.Fatal, Detail: "x"}}})
	got := NewDatasetWorkers(corpus, d.Internet, 0).LintCuts(results, 5)
	if !reflect.DeepEqual(base, got) {
		t.Error("findings for an unobserved certificate changed the report")
	}
	if got.BySeverity[certlint.Fatal] != base.BySeverity[certlint.Fatal] {
		t.Error("ghost FATAL finding counted")
	}
}

// surveyCert is a self-signed device certificate under its own key,
// altered by mutate.
func surveyCert(t *testing.T, key byte, mutate func(*x509lite.Template)) *x509lite.Certificate {
	t.Helper()
	seed := make([]byte, ed25519.SeedSize)
	seed[0] = key
	priv := ed25519.NewKeyFromSeed(seed)
	tmpl := &x509lite.Template{
		Version:      3,
		SerialNumber: big.NewInt(int64(key)),
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
	der, err := x509lite.CreateCertificate(tmpl, priv.Public().(ed25519.PublicKey), priv)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509lite.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

// TestLintSurvey: the survey splits one lint run by validity. Three invalid
// device certificates with pathologies and two clean valid ones are
// observed. A sixth certificate is in the corpus but never observed, and its
// entry in the run also carries a finding no linter makes; none of its
// findings count, and it enters no denominator.
func TestLintSurvey(t *testing.T) {
	bad1 := surveyCert(t, 1, func(tmpl *x509lite.Template) { tmpl.Subject = x509lite.Name{} })
	bad2 := surveyCert(t, 2, func(tmpl *x509lite.Template) { tmpl.NotAfter = tmpl.NotBefore.AddDate(0, 0, -1) })
	bad3 := surveyCert(t, 3, func(tmpl *x509lite.Template) { tmpl.Subject.CommonName = "192.168.0.1" })
	good1 := surveyCert(t, 4, nil)
	good2 := surveyCert(t, 5, nil)
	unseen := surveyCert(t, 6, func(tmpl *x509lite.Template) { tmpl.Subject = x509lite.Name{} })

	corpus := scanstore.NewCorpus()
	var obs []scanstore.Observation
	for i, c := range []*x509lite.Certificate{bad1, bad2, bad3, good1, good2} {
		id := corpus.Intern(c)
		corpus.Cert(id).Status = truststore.SelfSigned
		if c == good1 || c == good2 {
			corpus.Cert(id).Status = truststore.Valid
		}
		obs = append(obs, scanstore.Observation{Cert: id, IP: netsim.MakeIP(20, 0, 0, byte(i+1))})
	}
	corpus.Cert(corpus.Intern(unseen)).Status = truststore.SelfSigned
	if _, err := corpus.AddScan(scanstore.UMich, time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC), obs); err != nil {
		t.Fatal(err)
	}
	d := NewDatasetWorkers(corpus, nil, 1)

	certs := []*x509lite.Certificate{bad1, bad2, bad3, good1, good2, unseen}
	results := certlint.Default().RunCorpus(certs, &certlint.Context{}, certlint.Options{Workers: 1})
	results[5].Findings = append(results[5].Findings, certlint.Finding{LintID: "ghost", Version: 1, Severity: certlint.Fatal, Detail: "x"})

	rows := d.LintSurvey(results)
	if len(rows) == 0 {
		t.Fatal("empty survey")
	}
	byID := map[string]LintSurveyRow{}
	for _, r := range rows {
		byID[r.LintID] = r
	}
	// The unobserved sixth certificate also has an empty subject.
	if r := byID["subject_empty"]; r.InvalidCount != 1 || r.ValidCount != 0 || r.InvalidFrac != 1.0/3 {
		t.Errorf("subject_empty = %+v", r)
	}
	if r := byID["validity_negative"]; r.InvalidFrac <= 0 {
		t.Errorf("validity_negative = %+v", r)
	}
	// All five observed certificates are self-signed.
	if r := byID["self_signed"]; r.ValidCount != 2 || r.InvalidCount != 3 || r.ValidFrac != 1 || r.InvalidFrac != 1 {
		t.Errorf("self_signed = %+v", r)
	}
	if r, ok := byID["ghost"]; ok {
		t.Errorf("finding for an unobserved certificate counted: %+v", r)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].InvalidFrac < rows[i].InvalidFrac {
			t.Errorf("rows unsorted: %s (%.2f) before %s (%.2f)",
				rows[i-1].LintID, rows[i-1].InvalidFrac, rows[i].LintID, rows[i].InvalidFrac)
		}
	}
	if out := FormatLintSurvey(rows); !strings.Contains(out, "self_signed") {
		t.Errorf("formatted survey lacks self_signed:\n%s", out)
	}
}
