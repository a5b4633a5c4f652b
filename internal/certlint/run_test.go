package certlint

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"
	"time"

	"securepki/internal/obs"
	"securepki/internal/truststore"
	"securepki/internal/x509lite"
)

// corpusCerts builds a deterministic varied population: every pathology in
// the battery shows up on an index-derived schedule, and a fraction of
// certificates share one public key so key_shared has something to find.
func corpusCerts(t testing.TB, n int) ([]*x509lite.Certificate, *Context) {
	t.Helper()
	sharedSeed := make([]byte, ed25519.SeedSize)
	sharedSeed[0] = 0xAB
	certs := make([]*x509lite.Certificate, 0, n)
	for i := 0; i < n; i++ {
		seed := make([]byte, ed25519.SeedSize)
		binary.LittleEndian.PutUint64(seed, uint64(i)+1)
		if i%9 == 0 {
			copy(seed, sharedSeed)
		}
		priv := ed25519.NewKeyFromSeed(seed)
		pub := priv.Public().(ed25519.PublicKey)

		tmpl := &x509lite.Template{
			Version:      3,
			SerialNumber: big.NewInt(int64(i) + 1000),
			Subject:      x509lite.Name{CommonName: fmt.Sprintf("device-%d.example", i)},
			Issuer:       x509lite.Name{Organization: "Fleet", CommonName: "Fleet Device CA"},
			NotBefore:    time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:     time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC),
			DNSNames:     []string{fmt.Sprintf("device-%d.example", i)},
			OCSPServer:   []string{"http://ocsp.example"},
		}
		switch i % 5 {
		case 1:
			tmpl.Subject.CommonName = fmt.Sprintf("192.168.%d.%d", i%250, i%200+1)
			tmpl.DNSNames = nil
		case 2:
			tmpl.NotAfter = tmpl.NotBefore.AddDate(0, 0, -(i%30 + 1))
		case 3:
			tmpl.Subject = x509lite.Name{}
			tmpl.OCSPServer = nil
		case 4:
			tmpl.Subject.CommonName = "SecureGate VPN"
			tmpl.OCSPServer = nil
		}
		if i%7 == 0 {
			tmpl.Version = 1
		}
		if i%13 == 0 {
			tmpl.ForceGeneralizedTime = true
		}

		der, err := x509lite.CreateCertificate(tmpl, pub, priv)
		if err != nil {
			t.Fatal(err)
		}
		c, err := x509lite.Parse(der)
		if err != nil {
			t.Fatal(err)
		}
		certs = append(certs, c)
	}

	ctx := &Context{KeyCount: make(map[x509lite.Fingerprint]int)}
	for _, c := range certs {
		ctx.KeyCount[c.PublicKeyFingerprint()]++
	}
	return certs, ctx
}

// renderCorpus serialises corpus findings to the byte form the equivalence
// tests compare.
func renderCorpus(results []CertFindings) []byte {
	var b bytes.Buffer
	for _, cf := range results {
		fmt.Fprintf(&b, "%s\n", cf.Fingerprint)
		for _, f := range cf.Findings {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	}
	return b.Bytes()
}

// TestRunCorpusWorkerEquivalence is the determinism golden: the serial run
// and every parallel run must render to identical bytes.
func TestRunCorpusWorkerEquivalence(t *testing.T) {
	certs, ctx := corpusCerts(t, 211)
	want := renderCorpus(Default().RunCorpus(certs, ctx, Options{Workers: 1}))
	if len(want) == 0 {
		t.Fatal("serial run produced no output")
	}
	for _, workers := range []int{2, 4, 16} {
		got := renderCorpus(Default().RunCorpus(certs, ctx, Options{Workers: workers}))
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d output differs from serial run", workers)
		}
	}
}

// TestRunCorpusSortedByFingerprint pins the output order contract.
func TestRunCorpusSortedByFingerprint(t *testing.T) {
	certs, ctx := corpusCerts(t, 64)
	results := Default().RunCorpus(certs, ctx, Options{Workers: 4})
	if len(results) != len(certs) {
		t.Fatalf("got %d results for %d certs", len(results), len(certs))
	}
	for i := 1; i < len(results); i++ {
		if bytes.Compare(results[i-1].Fingerprint[:], results[i].Fingerprint[:]) > 0 {
			t.Fatalf("results not sorted by fingerprint at %d", i)
		}
	}
}

// TestRunCorpusMetrics checks the stable lint.* metrics and that the
// volatile throughput histogram only appears when a clock is injected.
func TestRunCorpusMetrics(t *testing.T) {
	certs, ctx := corpusCerts(t, 97)
	reg := obs.NewRegistry()
	results := Default().RunCorpus(certs, ctx, Options{Workers: 4, Obs: reg})

	if got := reg.Counter("lint.certs").Value(); got != int64(len(certs)) {
		t.Errorf("lint.certs = %d, want %d", got, len(certs))
	}
	if got := reg.Gauge("lint.linters").Value(); got != int64(Default().Len()) {
		t.Errorf("lint.linters = %d, want %d", got, Default().Len())
	}
	var wantFindings, wantErr int64
	for _, cf := range results {
		for _, f := range cf.Findings {
			wantFindings++
			if f.Severity == Error {
				wantErr++
			}
		}
	}
	if wantFindings == 0 {
		t.Fatal("corpus produced no findings")
	}
	if got := reg.Counter("lint.findings").Value(); got != wantFindings {
		t.Errorf("lint.findings = %d, want %d", got, wantFindings)
	}
	if got := reg.Counter("lint.findings.error").Value(); got != wantErr {
		t.Errorf("lint.findings.error = %d, want %d", got, wantErr)
	}
	sum := reg.Counter("lint.findings.info").Value() +
		reg.Counter("lint.findings.warn").Value() +
		reg.Counter("lint.findings.error").Value() +
		reg.Counter("lint.findings.fatal").Value()
	if sum != wantFindings {
		t.Errorf("severity counters sum to %d, want %d", sum, wantFindings)
	}
	if n := reg.Histogram("lint.certs_per_sec", nil, obs.Volatile).Count(); n != 0 {
		t.Errorf("throughput histogram observed %d times without a clock", n)
	}

	// With an injected fake clock the volatile histogram gets one sample.
	clock := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	now := func() time.Time {
		clock = clock.Add(250 * time.Millisecond)
		return clock
	}
	Default().RunCorpus(certs, ctx, Options{Workers: 4, Obs: reg, Now: now})
	if n := reg.Histogram("lint.certs_per_sec", nil, obs.Volatile).Count(); n != 1 {
		t.Errorf("throughput histogram observed %d times with a clock, want 1", n)
	}
}

// BenchmarkLintCorpus measures registry throughput on certificates nothing
// has looked at yet, the cold case: each iteration re-parses the corpus off
// the clock, so every self_signed check pays its Ed25519 verify instead of
// reading the verdict a previous iteration stored. `make bench` records the
// certs/sec figure into BENCH_snapshot.json.
func BenchmarkLintCorpus(b *testing.B) {
	benchLintCorpus(b, func([]*x509lite.Certificate) {})
}

// BenchmarkLintCorpusValidated is the pipeline's case: validation has
// already run (off the clock) and stored a self-signature verdict on every
// certificate it self-checked, so lint reads it.
func BenchmarkLintCorpusValidated(b *testing.B) {
	store := truststore.NewStore()
	benchLintCorpus(b, func(certs []*x509lite.Certificate) {
		for _, c := range certs {
			store.Verify(c)
		}
	})
}

// benchLintCorpus times RunCorpus over freshly parsed certificates, running
// prepare on them before the clock starts.
func benchLintCorpus(b *testing.B, prepare func([]*x509lite.Certificate)) {
	certs, ctx := corpusCerts(b, 512)
	ders := make([][]byte, len(certs))
	for i, c := range certs {
		ders[i] = c.Raw
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, der := range ders {
			c, err := x509lite.Parse(der)
			if err != nil {
				b.Fatal(err)
			}
			certs[j] = c
		}
		prepare(certs)
		b.StartTimer()
		Default().RunCorpus(certs, ctx, Options{Workers: 0})
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(certs))/secs, "certs/sec")
	}
}
