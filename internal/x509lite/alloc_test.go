package x509lite

import (
	"crypto/ed25519"
	"math/big"
	"net"
	"testing"
	"time"
)

// richTemplate returns a template exercising every extension the parser
// understands — the worst realistic case for the allocation budgets — with
// a self-signing key pair.
func richTemplate() (*Template, ed25519.PublicKey, ed25519.PrivateKey) {
	seed := make([]byte, ed25519.SeedSize)
	seed[0] = 0x5a
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	return &Template{
		Version:               3,
		SerialNumber:          big.NewInt(987654321),
		Subject:               Name{Country: "DE", Organization: "AVM", CommonName: "fritz.box"},
		Issuer:                Name{Country: "DE", Organization: "AVM", CommonName: "AVM Root"},
		NotBefore:             time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:              time.Date(2033, 1, 1, 0, 0, 0, 0, time.UTC),
		DNSNames:              []string{"fritz.box", "www.fritz.box"},
		IPAddresses:           []net.IP{net.IPv4(192, 168, 178, 1).To4()},
		SubjectKeyID:          []byte{1, 2, 3, 4},
		CRLDistributionPoints: []string{"http://crl.avm.de/root.crl"},
		OCSPServer:            []string{"http://ocsp.avm.de"},
		IssuingCertificateURL: []string{"http://aia.avm.de/root.der"},
		PolicyOIDs:            [][]int{{2, 23, 140, 1, 2, 1}},
		KeyUsage:              5,
	}, pub, priv
}

// richCertDER is richTemplate's certificate.
func richCertDER(tb testing.TB) []byte {
	tb.Helper()
	der, err := CreateCertificate(richTemplate())
	if err != nil {
		tb.Fatal(err)
	}
	return der
}

// The parse hot path's allocation contract: the PR that introduced the
// sharded snapshot format slimmed Parse from 97 allocations per rich
// certificate to ~21 (stack-allocated child decoders, raw-OID dispatch,
// exact slice sizing, memoized digests). The budget below holds the line —
// a regression past it means an accidental heap escape crept back in.
const parseAllocBudget = 30

func TestParseAllocBudget(t *testing.T) {
	der := richCertDER(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Parse(der); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > parseAllocBudget {
		t.Errorf("Parse allocates %.1f times per rich certificate, budget %d", allocs, parseAllocBudget)
	}
}

// CreateCertificate's allocation contract: the certificate is encoded in
// one buffer, signed in place and copied out once, where the template
// encoder it replaced allocated 178 times per rich certificate (a buffer and
// a copy per nested value). It measures 3 (the buffer, the signature, the
// copy), 9 under -race; the budget is the latter plus headroom, far below
// the 38 of an encoder that still gives strings, times and OIDs a slice each.
const createAllocBudget = 12

func TestCreateAllocBudget(t *testing.T) {
	tmpl, pub, priv := richTemplate()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := CreateCertificate(tmpl, pub, priv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > createAllocBudget {
		t.Errorf("CreateCertificate allocates %.1f times per rich certificate, budget %d", allocs, createAllocBudget)
	}
}

// Fingerprint/PublicKeyFingerprint on a parsed certificate must be memo
// reads, not hash recomputations. Mutating the underlying bytes after Parse
// proves it: a recomputing implementation would return a different digest.
func TestFingerprintMemoizedAtParse(t *testing.T) {
	der := richCertDER(t)
	cert, err := Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	fp, pkfp := cert.Fingerprint(), cert.PublicKeyFingerprint()
	if fp != FingerprintBytes(der) {
		t.Fatal("memoized fingerprint does not match the DER digest")
	}
	cert.Raw[len(cert.Raw)-1] ^= 0xff
	cert.PublicKey[0] ^= 0xff
	if cert.Fingerprint() != fp {
		t.Error("Fingerprint rehashed Raw instead of returning the parse-time memo")
	}
	if cert.PublicKeyFingerprint() != pkfp {
		t.Error("PublicKeyFingerprint rehashed the key instead of returning the memo")
	}
	cert.Raw[len(cert.Raw)-1] ^= 0xff
	cert.PublicKey[0] ^= 0xff

	// Zero hash allocations (and by construction zero hash work) per call.
	if a := testing.AllocsPerRun(100, func() { cert.Fingerprint(); cert.PublicKeyFingerprint() }); a != 0 {
		t.Errorf("fingerprint accessors allocate %.1f per call pair", a)
	}
}

// A Certificate assembled by hand (no Parse) must still answer correctly via
// the compute-on-demand fallback.
func TestFingerprintFallbackWithoutMemo(t *testing.T) {
	der := richCertDER(t)
	parsed, err := Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	bare := &Certificate{Raw: parsed.Raw, PublicKey: parsed.PublicKey}
	if bare.Fingerprint() != parsed.Fingerprint() {
		t.Error("fallback Fingerprint differs from memoized")
	}
	if bare.PublicKeyFingerprint() != parsed.PublicKeyFingerprint() {
		t.Error("fallback PublicKeyFingerprint differs from memoized")
	}
	bare.MemoizeFingerprints()
	if bare.Fingerprint() != parsed.Fingerprint() || bare.PublicKeyFingerprint() != parsed.PublicKeyFingerprint() {
		t.Error("MemoizeFingerprints changed the answers")
	}
}

// ParseWithDigest adopts the attested digest instead of hashing Raw.
func TestParseWithDigestAdopts(t *testing.T) {
	der := richCertDER(t)
	want := FingerprintBytes(der)
	cert, err := ParseWithDigest(der, want)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Fingerprint() != want {
		t.Error("adopted digest lost")
	}
	if cert.PublicKeyFingerprint() != FingerprintBytes(cert.PublicKey) {
		t.Error("key digest must still be computed")
	}
	// The adoption is attestation, not verification: a deliberately wrong
	// digest is accepted verbatim. Storage-layer checksums own integrity.
	wrong := Fingerprint{1, 2, 3}
	cert2, err := ParseWithDigest(der, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if cert2.Fingerprint() != wrong {
		t.Error("ParseWithDigest second-guessed the caller's digest")
	}
}

// BenchmarkParseRich complements x509lite_test.go's BenchmarkParse (minimal
// certificate) with the every-extension worst case.
func BenchmarkParseRich(b *testing.B) {
	der := richCertDER(b)
	b.SetBytes(int64(len(der)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(der); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "certs/sec")
}

func BenchmarkParseWithDigest(b *testing.B) {
	der := richCertDER(b)
	digest := FingerprintBytes(der)
	b.SetBytes(int64(len(der)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseWithDigest(der, digest); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "certs/sec")
}

// BenchmarkCreateCertificate encodes and signs richTemplate's certificate:
// the simulator's per-certificate construction cost, Ed25519 signature
// included.
func BenchmarkCreateCertificate(b *testing.B) {
	tmpl, pub, priv := richTemplate()
	b.SetBytes(int64(len(richCertDER(b))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CreateCertificate(tmpl, pub, priv); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "certs/sec")
}

func BenchmarkParsePEM(b *testing.B) {
	pem := EncodePEM(richCertDER(b))
	b.SetBytes(int64(len(pem)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		certs, err := ParsePEM(pem)
		if err != nil {
			b.Fatal(err)
		}
		if len(certs) != 1 {
			b.Fatal("want one certificate")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "certs/sec")
}
