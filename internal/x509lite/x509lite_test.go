package x509lite

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"math/big"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// deterministic key material for tests
func testKey(t *testing.T, seed byte) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	s := make([]byte, ed25519.SeedSize)
	for i := range s {
		s[i] = seed
	}
	priv := ed25519.NewKeyFromSeed(s)
	return priv.Public().(ed25519.PublicKey), priv
}

func baseTemplate() *Template {
	return &Template{
		Version:      3,
		SerialNumber: big.NewInt(12345),
		Issuer:       Name{Organization: "AVM", CommonName: "fritz.box"},
		Subject:      Name{Organization: "AVM", CommonName: "fritz.box"},
		NotBefore:    time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2033, 5, 1, 0, 0, 0, 0, time.UTC),
	}
}

func mustCreate(t *testing.T, tmpl *Template, pub ed25519.PublicKey, signer ed25519.PrivateKey) *Certificate {
	t.Helper()
	der, err := CreateCertificate(tmpl, pub, signer)
	if err != nil {
		t.Fatalf("CreateCertificate: %v", err)
	}
	cert, err := Parse(der)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return cert
}

func TestCreateParseRoundTrip(t *testing.T) {
	pub, priv := testKey(t, 1)
	tmpl := baseTemplate()
	tmpl.DNSNames = []string{"fritz.fonwlan.box", "www.fritz.box"}
	tmpl.IPAddresses = []net.IP{net.IPv4(192, 168, 178, 1)}
	tmpl.SubjectKeyID = []byte{1, 2, 3, 4}
	tmpl.AuthorityKeyID = []byte{5, 6, 7, 8}
	tmpl.CRLDistributionPoints = []string{"http://crl.example.com/root.crl"}
	tmpl.OCSPServer = []string{"http://ocsp.example.com"}
	tmpl.IssuingCertificateURL = []string{"http://ca.example.com/root.der"}
	tmpl.PolicyOIDs = [][]int{{2, 23, 140, 1, 2, 1}}
	tmpl.IncludeBasicConstraints = true
	tmpl.IsCA = true
	tmpl.KeyUsage = 0x86

	cert := mustCreate(t, tmpl, pub, priv)

	if cert.Version != 3 {
		t.Errorf("Version = %d", cert.Version)
	}
	if cert.SerialNumber.Int64() != 12345 {
		t.Errorf("Serial = %v", cert.SerialNumber)
	}
	if cert.Subject.CommonName != "fritz.box" || cert.Subject.Organization != "AVM" {
		t.Errorf("Subject = %+v", cert.Subject)
	}
	if !cert.NotBefore.Equal(tmpl.NotBefore) || !cert.NotAfter.Equal(tmpl.NotAfter) {
		t.Errorf("validity = %v..%v", cert.NotBefore, cert.NotAfter)
	}
	if !bytes.Equal(cert.PublicKey, pub) {
		t.Error("public key mismatch")
	}
	if len(cert.DNSNames) != 2 || cert.DNSNames[0] != "fritz.fonwlan.box" {
		t.Errorf("DNSNames = %v", cert.DNSNames)
	}
	if len(cert.IPAddresses) != 1 || !cert.IPAddresses[0].Equal(net.IPv4(192, 168, 178, 1)) {
		t.Errorf("IPAddresses = %v", cert.IPAddresses)
	}
	if !bytes.Equal(cert.SubjectKeyID, []byte{1, 2, 3, 4}) {
		t.Errorf("SKI = %x", cert.SubjectKeyID)
	}
	if !bytes.Equal(cert.AuthorityKeyID, []byte{5, 6, 7, 8}) {
		t.Errorf("AKI = %x", cert.AuthorityKeyID)
	}
	if len(cert.CRLDistributionPoints) != 1 || cert.CRLDistributionPoints[0] != "http://crl.example.com/root.crl" {
		t.Errorf("CRL = %v", cert.CRLDistributionPoints)
	}
	if len(cert.OCSPServer) != 1 || cert.OCSPServer[0] != "http://ocsp.example.com" {
		t.Errorf("OCSP = %v", cert.OCSPServer)
	}
	if len(cert.IssuingCertificateURL) != 1 {
		t.Errorf("AIA = %v", cert.IssuingCertificateURL)
	}
	if len(cert.PolicyOIDs) != 1 || OIDString(cert.PolicyOIDs[0]) != "2.23.140.1.2.1" {
		t.Errorf("policies = %v", cert.PolicyOIDs)
	}
	if !cert.IsCA || !cert.BasicConstraintsValid {
		t.Error("basic constraints lost")
	}
	if cert.KeyUsage != 0x86 {
		t.Errorf("KeyUsage = %x", cert.KeyUsage)
	}
}

func TestSelfSignedVerifies(t *testing.T) {
	pub, priv := testKey(t, 2)
	cert := mustCreate(t, baseTemplate(), pub, priv)
	if !cert.SelfSigned() {
		t.Error("self-signed certificate does not verify under its own key")
	}
	if !cert.SelfIssued() {
		t.Error("identical names not detected as self-issued")
	}
}

func TestSelfSignedWithDifferentNames(t *testing.T) {
	// The openssl error-19 subtlety: self-signed but subject != issuer.
	pub, priv := testKey(t, 3)
	tmpl := baseTemplate()
	tmpl.Issuer = Name{CommonName: "someca.example"}
	cert := mustCreate(t, tmpl, pub, priv)
	if cert.SelfIssued() {
		t.Error("different names detected as self-issued")
	}
	if !cert.SelfSigned() {
		t.Error("signature check should still identify self-signed")
	}
}

func TestChainSignature(t *testing.T) {
	caPub, caPriv := testKey(t, 4)
	caTmpl := baseTemplate()
	caTmpl.Subject = Name{CommonName: "Test CA"}
	caTmpl.Issuer = caTmpl.Subject
	caTmpl.IsCA = true
	caTmpl.IncludeBasicConstraints = true
	ca := mustCreate(t, caTmpl, caPub, caPriv)

	leafPub, _ := testKey(t, 5)
	leafTmpl := baseTemplate()
	leafTmpl.Subject = Name{CommonName: "leaf.example.com"}
	leafTmpl.Issuer = caTmpl.Subject
	leaf := mustCreate(t, leafTmpl, leafPub, caPriv)

	if err := leaf.CheckSignatureFrom(ca); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
	if err := ca.CheckSignatureFrom(leaf); err == nil {
		t.Error("reversed chain accepted")
	}
	if leaf.SelfSigned() {
		t.Error("CA-signed leaf claims to be self-signed")
	}
}

func TestCorruptSignature(t *testing.T) {
	pub, priv := testKey(t, 6)
	tmpl := baseTemplate()
	tmpl.CorruptSignature = true
	cert := mustCreate(t, tmpl, pub, priv)
	if cert.SelfSigned() {
		t.Error("corrupted signature verified")
	}
	var ve *VerifyError
	if err := cert.CheckSignatureFrom(cert); !errors.As(err, &ve) {
		t.Errorf("want VerifyError, got %v", err)
	}
}

// SelfSigned stores its verdict on the certificate: the first call runs the
// check, later calls read the memo and SelfSignedVerdict says so. Corrupting
// the signature after the first call proves the second did not re-check.
func TestSelfSignedMemoized(t *testing.T) {
	pub, priv := testKey(t, 2)
	cert := mustCreate(t, baseTemplate(), pub, priv)
	if ok, checked := cert.SelfSignedVerdict(); !ok || !checked {
		t.Fatalf("first call = (%v, %v), want (true, true)", ok, checked)
	}
	cert.Signature[0] ^= 0xff
	defer func() { cert.Signature[0] ^= 0xff }()
	if ok, checked := cert.SelfSignedVerdict(); !ok || checked {
		t.Fatalf("second call = (%v, %v), want the stored (true, false)", ok, checked)
	}
	if !cert.SelfSigned() {
		t.Fatal("SelfSigned re-checked the corrupted signature instead of reading the memo")
	}
}

// Concurrent first calls on one shared certificate race only on the atomic
// memo: every caller gets the check's verdict, for a self-signed, a
// CA-signed and a corrupt certificate alike, and the memo then holds it.
// Meant for -race -count=10.
func TestSelfSignedConcurrent(t *testing.T) {
	selfPub, selfPriv := testKey(t, 2)
	caPub, caPriv := testKey(t, 4)
	caTmpl := baseTemplate()
	caTmpl.Subject = Name{CommonName: "Test CA"}
	caTmpl.Issuer = caTmpl.Subject
	leafTmpl := baseTemplate()
	leafTmpl.Issuer = caTmpl.Subject
	corruptTmpl := baseTemplate()
	corruptTmpl.CorruptSignature = true
	cases := []struct {
		name string
		cert *Certificate
		want bool
	}{
		{"self-signed", mustCreate(t, baseTemplate(), selfPub, selfPriv), true},
		{"ca-signed", mustCreate(t, leafTmpl, selfPub, caPriv), false},
		{"corrupt", mustCreate(t, corruptTmpl, caPub, caPriv), false},
	}
	for _, tc := range cases {
		const goroutines = 16
		got := make([]bool, goroutines)
		var checks atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				ok, checked := tc.cert.SelfSignedVerdict()
				got[g] = ok
				if checked {
					checks.Add(1)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for g, ok := range got {
			if ok != tc.want {
				t.Errorf("%s: goroutine %d got %v, want %v", tc.name, g, ok, tc.want)
			}
		}
		if checks.Load() < 1 {
			t.Errorf("%s: no caller ran the check", tc.name)
		}
		if ok, checked := tc.cert.SelfSignedVerdict(); ok != tc.want || checked {
			t.Errorf("%s: after the race = (%v, %v), want the stored (%v, false)", tc.name, ok, checked, tc.want)
		}
	}
}

func TestVersion1OmitsVersionAndExtensions(t *testing.T) {
	pub, priv := testKey(t, 7)
	tmpl := baseTemplate()
	tmpl.Version = 1
	tmpl.DNSNames = []string{"ignored.example"} // v1 has no extensions
	cert := mustCreate(t, tmpl, pub, priv)
	if cert.Version != 1 {
		t.Errorf("Version = %d, want 1", cert.Version)
	}
	if len(cert.DNSNames) != 0 {
		t.Errorf("v1 certificate carries SANs: %v", cert.DNSNames)
	}
}

func TestBogusVersionsPreserved(t *testing.T) {
	// The corpus contains version numbers 2, 4 and 13.
	pub, priv := testKey(t, 8)
	for _, v := range []int{2, 4, 13} {
		tmpl := baseTemplate()
		tmpl.Version = v
		cert := mustCreate(t, tmpl, pub, priv)
		if cert.Version != v {
			t.Errorf("Version %d round-tripped to %d", v, cert.Version)
		}
	}
}

func TestNegativeValidityPeriod(t *testing.T) {
	// 5.38% of invalid certs have NotAfter before NotBefore.
	pub, priv := testKey(t, 9)
	tmpl := baseTemplate()
	tmpl.NotBefore = time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	tmpl.NotAfter = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	cert := mustCreate(t, tmpl, pub, priv)
	if cert.ValidityDays() >= 0 {
		t.Errorf("validity period = %v days, want negative", cert.ValidityDays())
	}
}

func TestFarFutureNotAfter(t *testing.T) {
	// Validity periods "greater than 1M days": NotAfter in year 3000+.
	pub, priv := testKey(t, 10)
	tmpl := baseTemplate()
	tmpl.NotAfter = time.Date(3012, 12, 31, 23, 59, 59, 0, time.UTC)
	cert := mustCreate(t, tmpl, pub, priv)
	if cert.NotAfter.Year() != 3012 {
		t.Errorf("NotAfter year = %d", cert.NotAfter.Year())
	}
	days := cert.ValidityDays()
	if days < 300000 {
		t.Errorf("validity = %v days, want >300k", days)
	}
}

func TestEmptyNames(t *testing.T) {
	// 925,579 invalid certs were issued under an entirely empty name.
	pub, priv := testKey(t, 11)
	tmpl := baseTemplate()
	tmpl.Subject = Name{}
	tmpl.Issuer = Name{}
	cert := mustCreate(t, tmpl, pub, priv)
	if !cert.Subject.Empty() || !cert.Issuer.Empty() {
		t.Errorf("names not empty: %v / %v", cert.Subject, cert.Issuer)
	}
	if cert.Subject.String() != "" {
		t.Errorf("empty name renders as %q", cert.Subject.String())
	}
}

func TestNameString(t *testing.T) {
	n := Name{Country: "DE", Organization: "Lancom Systems", CommonName: "www.lancom-systems.de"}
	want := "C=DE, O=Lancom Systems, CN=www.lancom-systems.de"
	if got := n.String(); got != want {
		t.Errorf("Name.String() = %q, want %q", got, want)
	}
}

// AppendTo appends exactly String's rendering after whatever dst holds:
// the separator depends on what the name itself has written, not on dst.
func TestNameAppendTo(t *testing.T) {
	for _, tc := range []struct {
		n    Name
		want string
	}{
		{Name{}, ""},
		{Name{CommonName: "fritz.box"}, "CN=fritz.box"},
		{Name{Locality: "Berlin", OrganizationalUnit: "Fleet"}, "L=Berlin, OU=Fleet"},
		{Name{Country: "DE", Locality: "Berlin", Organization: "AVM", OrganizationalUnit: "Fleet", CommonName: "fritz.box"},
			"C=DE, L=Berlin, O=AVM, OU=Fleet, CN=fritz.box"},
		{Name{Organization: "x, CN=y"}, "O=x, CN=y"},
	} {
		if got := tc.n.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.n, got, tc.want)
		}
		if got := string(tc.n.AppendTo([]byte("head|"))); got != "head|"+tc.want {
			t.Errorf("%#v.AppendTo(head|) = %q, want %q", tc.n, got, "head|"+tc.want)
		}
	}
}

// LooksLikeIPv4 scans bytes where it once split on dots; it must agree with
// the split form on every input.
func TestLooksLikeIPv4MatchesSplitForm(t *testing.T) {
	split := func(s string) bool {
		parts := strings.Split(s, ".")
		if len(parts) != 4 {
			return false
		}
		for _, p := range parts {
			if len(p) == 0 || len(p) > 3 {
				return false
			}
			for _, c := range p {
				if c < '0' || c > '9' {
					return false
				}
			}
		}
		return true
	}
	inputs := []string{
		"", ".", "...", "....", "1.2.3.4", "192.168.178.1", "255.255.255.255", "999.999.999.999",
		"1.2.3", "1.2.3.4.5", "1..2.3", ".1.2.3", "1.2.3.", "1234.1.1.1", "1.2.3.4567",
		"a.b.c.d", "1.2.3.x", "fritz.box", "1.2.3.4 ", " 1.2.3.4", "1.2.3.\xff", "١.٢.٣.٤", "0.0.0.0",
	}
	for _, s := range inputs {
		if got, want := LooksLikeIPv4(s), split(s); got != want {
			t.Errorf("LooksLikeIPv4(%q) = %v, split form %v", s, got, want)
		}
	}
	if err := quick.CheckEqual(LooksLikeIPv4, split, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if a := testing.AllocsPerRun(100, func() { LooksLikeIPv4("192.168.178.1") }); a != 0 {
		t.Errorf("LooksLikeIPv4 allocates %.1f times per call", a)
	}
}

func TestFingerprintStability(t *testing.T) {
	pub, priv := testKey(t, 12)
	der, err := CreateCertificate(baseTemplate(), pub, priv)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := Parse(der)
	c2, _ := Parse(append([]byte(nil), der...))
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Error("fingerprint differs across parses of identical DER")
	}
	if c1.PublicKeyFingerprint() != c2.PublicKeyFingerprint() {
		t.Error("key fingerprint differs")
	}
}

func TestDistinctSerialsDistinctFingerprints(t *testing.T) {
	pub, priv := testKey(t, 13)
	t1 := baseTemplate()
	t2 := baseTemplate()
	t2.SerialNumber = big.NewInt(99999)
	d1, _ := CreateCertificate(t1, pub, priv)
	d2, _ := CreateCertificate(t2, pub, priv)
	if FingerprintBytes(d1) == FingerprintBytes(d2) {
		t.Error("different certs share a fingerprint")
	}
	c1, _ := Parse(d1)
	c2, _ := Parse(d2)
	if c1.PublicKeyFingerprint() != c2.PublicKeyFingerprint() {
		t.Error("same key should share a key fingerprint")
	}
}

func TestCreateRejectsBadInputs(t *testing.T) {
	pub, priv := testKey(t, 14)
	if _, err := CreateCertificate(&Template{}, pub, priv); err == nil {
		t.Error("missing serial accepted")
	}
	tmpl := baseTemplate()
	if _, err := CreateCertificate(tmpl, pub[:5], priv); err == nil {
		t.Error("short public key accepted")
	}
	if _, err := CreateCertificate(tmpl, pub, priv[:5]); err == nil {
		t.Error("short private key accepted")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x30},
		{0x01, 0x02, 0x03},
		bytes.Repeat([]byte{0xff}, 100),
	}
	for i, der := range cases {
		if _, err := Parse(der); err == nil {
			t.Errorf("case %d: garbage parsed successfully", i)
		}
	}
}

func TestParseTruncationsNeverPanic(t *testing.T) {
	pub, priv := testKey(t, 15)
	tmpl := baseTemplate()
	tmpl.DNSNames = []string{"a.example", "b.example"}
	tmpl.SubjectKeyID = []byte{9}
	der, err := CreateCertificate(tmpl, pub, priv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(der); i++ {
		Parse(der[:i]) // must not panic; errors are expected
	}
	// Bit-flips must not panic either (they may or may not parse).
	for i := 0; i < len(der); i++ {
		mut := append([]byte(nil), der...)
		mut[i] ^= 0x01
		Parse(mut)
	}
}

func TestParseFuzzProperty(t *testing.T) {
	f := func(raw []byte) bool {
		Parse(raw) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	pub, priv := testKey(t, 16)
	der, err := CreateCertificate(baseTemplate(), pub, priv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(append(der, 0x00)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestBigSerialNumbers(t *testing.T) {
	pub, priv := testKey(t, 17)
	serial := new(big.Int).Lsh(big.NewInt(1), 120) // 121-bit serial
	tmpl := baseTemplate()
	tmpl.SerialNumber = serial
	cert := mustCreate(t, tmpl, pub, priv)
	if cert.SerialNumber.Cmp(serial) != 0 {
		t.Errorf("big serial round trip: %v", cert.SerialNumber)
	}
}

func BenchmarkParse(b *testing.B) {
	seed := make([]byte, ed25519.SeedSize)
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	tmpl := baseTemplate()
	tmpl.DNSNames = []string{"fritz.fonwlan.box"}
	der, err := CreateCertificate(tmpl, pub, priv)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(der); err != nil {
			b.Fatal(err)
		}
	}
}
