package truststore

import (
	"crypto/ed25519"
	"math/big"
	"testing"
	"time"

	"securepki/internal/x509lite"
)

type ca struct {
	cert *x509lite.Certificate
	priv ed25519.PrivateKey
}

var serialCounter int64 = 1000

func newSerial() *big.Int {
	serialCounter++
	return big.NewInt(serialCounter)
}

func key(seed byte) (ed25519.PublicKey, ed25519.PrivateKey) {
	s := make([]byte, ed25519.SeedSize)
	for i := range s {
		s[i] = seed
	}
	priv := ed25519.NewKeyFromSeed(s)
	return priv.Public().(ed25519.PublicKey), priv
}

func makeCA(t *testing.T, seed byte, name string) ca {
	t.Helper()
	pub, priv := key(seed)
	tmpl := &x509lite.Template{
		Version:                 3,
		SerialNumber:            newSerial(),
		Subject:                 x509lite.Name{CommonName: name},
		Issuer:                  x509lite.Name{CommonName: name},
		NotBefore:               time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:                time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC),
		IsCA:                    true,
		IncludeBasicConstraints: true,
	}
	der, err := x509lite.CreateCertificate(tmpl, pub, priv)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509lite.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	return ca{cert: cert, priv: priv}
}

func signCA(t *testing.T, seed byte, name string, parent ca) ca {
	t.Helper()
	pub, priv := key(seed)
	tmpl := &x509lite.Template{
		Version:                 3,
		SerialNumber:            newSerial(),
		Subject:                 x509lite.Name{CommonName: name},
		Issuer:                  parent.cert.Subject,
		NotBefore:               time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:                time.Date(2029, 1, 1, 0, 0, 0, 0, time.UTC),
		IsCA:                    true,
		IncludeBasicConstraints: true,
	}
	der, err := x509lite.CreateCertificate(tmpl, pub, parent.priv)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509lite.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	return ca{cert: cert, priv: priv}
}

func makeLeaf(t *testing.T, seed byte, cn string, parent ca, mutate func(*x509lite.Template)) *x509lite.Certificate {
	t.Helper()
	pub, _ := key(seed)
	tmpl := &x509lite.Template{
		Version:      3,
		SerialNumber: newSerial(),
		Subject:      x509lite.Name{CommonName: cn},
		Issuer:       parent.cert.Subject,
		NotBefore:    time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	if mutate != nil {
		mutate(tmpl)
	}
	der, err := x509lite.CreateCertificate(tmpl, pub, parent.priv)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509lite.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

func makeSelfSigned(t *testing.T, seed byte, cn string, mutate func(*x509lite.Template)) *x509lite.Certificate {
	t.Helper()
	pub, priv := key(seed)
	tmpl := &x509lite.Template{
		Version:      3,
		SerialNumber: newSerial(),
		Subject:      x509lite.Name{CommonName: cn},
		Issuer:       x509lite.Name{CommonName: cn},
		NotBefore:    time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2033, 1, 1, 0, 0, 0, 0, time.UTC),
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

func TestRootIsValid(t *testing.T) {
	root := makeCA(t, 1, "Trusted Root CA")
	s := NewStore()
	s.AddRoot(root.cert)
	res := s.Verify(root.cert)
	if res.Status != Valid {
		t.Errorf("root classified %v", res.Status)
	}
	if len(res.Chain) != 1 {
		t.Errorf("root chain length %d", len(res.Chain))
	}
}

func TestDirectlyRootedLeafIsValid(t *testing.T) {
	root := makeCA(t, 2, "Root A")
	leaf := makeLeaf(t, 3, "www.example.com", root, nil)
	s := NewStore()
	s.AddRoot(root.cert)
	res := s.Verify(leaf)
	if res.Status != Valid {
		t.Fatalf("leaf classified %v", res.Status)
	}
	if len(res.Chain) != 2 || res.Chain[0] != leaf {
		t.Errorf("chain = %d certs", len(res.Chain))
	}
}

func TestChainThroughIntermediate(t *testing.T) {
	root := makeCA(t, 4, "Root B")
	inter := signCA(t, 5, "Intermediate B1", root)
	leaf := makeLeaf(t, 6, "shop.example.com", inter, nil)

	s := NewStore()
	s.AddRoot(root.cert)
	s.AddIntermediate(inter.cert)
	res := s.Verify(leaf)
	if res.Status != Valid {
		t.Fatalf("leaf via intermediate classified %v", res.Status)
	}
	if len(res.Chain) != 3 {
		t.Errorf("chain length = %d, want 3", len(res.Chain))
	}
}

func TestTransvalidCompletion(t *testing.T) {
	// Server presented a broken chain, but the intermediate was harvested
	// from another scan — the paper still counts the leaf as valid.
	root := makeCA(t, 7, "Root C")
	inter := signCA(t, 8, "Intermediate C1", root)
	leaf := makeLeaf(t, 9, "transvalid.example.com", inter, nil)

	s := NewStore()
	s.AddRoot(root.cert)
	if got := s.Verify(leaf).Status; got != UntrustedIssuer {
		t.Fatalf("without pooled intermediate: %v, want untrusted-issuer (unknown issuer)", got)
	}
	s.AddIntermediate(inter.cert)
	if got := s.Verify(leaf).Status; got != Valid {
		t.Errorf("with pooled intermediate: %v, want valid", got)
	}
}

func TestSelfSignedClassification(t *testing.T) {
	s := NewStore()
	s.AddRoot(makeCA(t, 10, "Root D").cert)
	leaf := makeSelfSigned(t, 11, "192.168.1.1", nil)
	if got := s.Verify(leaf).Status; got != SelfSigned {
		t.Errorf("self-signed classified %v", got)
	}
}

func TestSelfSignedDifferentNamesStillSelfSigned(t *testing.T) {
	// Signature verifies under own key even though issuer name differs —
	// must be classified self-signed (openssl error-19 caveat).
	pub, priv := key(12)
	tmpl := &x509lite.Template{
		Version:      3,
		SerialNumber: newSerial(),
		Subject:      x509lite.Name{CommonName: "device.local"},
		Issuer:       x509lite.Name{CommonName: "Bogus Issuer Name"},
		NotBefore:    time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2033, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	der, err := x509lite.CreateCertificate(tmpl, pub, priv)
	if err != nil {
		t.Fatal(err)
	}
	cert, _ := x509lite.Parse(der)
	s := NewStore()
	if got := s.Verify(cert).Status; got != SelfSigned {
		t.Errorf("name-mismatched self-signed classified %v", got)
	}
}

func TestUntrustedIssuer(t *testing.T) {
	// Signed by a CA that is pooled but not rooted.
	vendorCA := makeCA(t, 13, "www.lancom-systems.de")
	leaf := makeLeaf(t, 14, "LANCOM 1781", vendorCA, nil)
	s := NewStore()
	s.AddRoot(makeCA(t, 15, "Real Root").cert)
	s.AddIntermediate(vendorCA.cert)
	if got := s.Verify(leaf).Status; got != UntrustedIssuer {
		t.Errorf("vendor-CA leaf classified %v", got)
	}
}

func TestUnknownIssuerIsUntrusted(t *testing.T) {
	vendorCA := makeCA(t, 16, "remotewd.com")
	leaf := makeLeaf(t, 17, "WD2GO 1234", vendorCA, nil)
	s := NewStore() // issuer never observed anywhere
	if got := s.Verify(leaf).Status; got != UntrustedIssuer {
		t.Errorf("unknown-issuer leaf classified %v", got)
	}
}

func TestBadSignature(t *testing.T) {
	s := NewStore()
	leaf := makeSelfSigned(t, 18, "corrupt.device", func(tmpl *x509lite.Template) {
		tmpl.CorruptSignature = true
	})
	if got := s.Verify(leaf).Status; got != BadSignature {
		t.Errorf("corrupt self-signed classified %v", got)
	}
}

func TestBadVersion(t *testing.T) {
	s := NewStore()
	for _, v := range []int{2, 4, 13} {
		leaf := makeSelfSigned(t, 19, "weird.device", func(tmpl *x509lite.Template) {
			tmpl.Version = v
		})
		if got := s.Verify(leaf).Status; got != BadVersion {
			t.Errorf("version %d classified %v", v, got)
		}
	}
}

func TestExpiryIgnored(t *testing.T) {
	// A certificate valid 2001–2002 chains fine today: the paper ignores
	// expiry entirely.
	root := makeCA(t, 20, "Old Root")
	leaf := makeLeaf(t, 21, "old.example.com", root, func(tmpl *x509lite.Template) {
		tmpl.NotBefore = time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
		tmpl.NotAfter = time.Date(2002, 1, 1, 0, 0, 0, 0, time.UTC)
	})
	s := NewStore()
	s.AddRoot(root.cert)
	if got := s.Verify(leaf).Status; got != Valid {
		t.Errorf("expired-but-chained leaf classified %v", got)
	}
}

func TestIntermediateLoopTerminates(t *testing.T) {
	// Two CAs signing each other must not hang chain building.
	pubA, privA := key(22)
	pubB, privB := key(23)
	nameA := x509lite.Name{CommonName: "Loop A"}
	nameB := x509lite.Name{CommonName: "Loop B"}
	mk := func(sub, iss x509lite.Name, pub ed25519.PublicKey, signer ed25519.PrivateKey) *x509lite.Certificate {
		der, err := x509lite.CreateCertificate(&x509lite.Template{
			Version: 3, SerialNumber: newSerial(),
			Subject: sub, Issuer: iss,
			NotBefore: time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:  time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
			IsCA:      true, IncludeBasicConstraints: true,
		}, pub, signer)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := x509lite.Parse(der)
		return c
	}
	aSignedByB := mk(nameA, nameB, pubA, privB)
	bSignedByA := mk(nameB, nameA, pubB, privA)
	s := NewStore()
	s.AddIntermediate(aSignedByB)
	s.AddIntermediate(bSignedByA)
	done := make(chan Result, 1)
	go func() { done <- s.Verify(aSignedByB) }()
	select {
	case res := <-done:
		if res.Status == Valid {
			t.Error("loop classified valid")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("chain building did not terminate on a signature loop")
	}
}

func TestDuplicateAddsIgnored(t *testing.T) {
	root := makeCA(t, 24, "Dup Root")
	s := NewStore()
	s.AddRoot(root.cert)
	s.AddRoot(root.cert)
	if s.NumRoots() != 1 {
		t.Errorf("NumRoots = %d", s.NumRoots())
	}
	inter := signCA(t, 25, "Dup Inter", root)
	s.AddIntermediate(inter.cert)
	s.AddIntermediate(inter.cert)
	if s.NumIntermediates() != 1 {
		t.Errorf("NumIntermediates = %d", s.NumIntermediates())
	}
}

func TestStatusStrings(t *testing.T) {
	cases := map[Status]string{
		Valid:           "valid",
		SelfSigned:      "self-signed",
		UntrustedIssuer: "untrusted-issuer",
		BadSignature:    "bad-signature",
		BadVersion:      "bad-version",
		Status(99):      "unknown",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
	if Valid.Invalid() || !SelfSigned.Invalid() {
		t.Error("Invalid() predicates wrong")
	}
}

func TestDeepChain(t *testing.T) {
	root := makeCA(t, 26, "Deep Root")
	parent := root
	s := NewStore()
	s.AddRoot(root.cert)
	for i := 0; i < 4; i++ {
		inter := signCA(t, byte(27+i), "Deep Inter "+string(rune('A'+i)), parent)
		s.AddIntermediate(inter.cert)
		parent = inter
	}
	leaf := makeLeaf(t, 40, "deep.example.com", parent, nil)
	res := s.Verify(leaf)
	if res.Status != Valid {
		t.Fatalf("deep chain classified %v", res.Status)
	}
	if len(res.Chain) != 6 {
		t.Errorf("chain length = %d, want 6", len(res.Chain))
	}
}

func TestChainCacheStats(t *testing.T) {
	root := makeCA(t, 90, "Root Stats")
	inter := signCA(t, 93, "Intermediate Stats", root)
	leafA := makeLeaf(t, 91, "a.example.com", inter, nil)
	leafB := makeLeaf(t, 92, "b.example.com", inter, nil)
	s := NewStore()
	s.AddRoot(root.cert)
	s.AddIntermediate(inter.cert)
	if hits, misses := s.ChainCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("fresh store stats = %d/%d", hits, misses)
	}
	s.Verify(leafA) // first resolution of the root's upward path: one miss
	_, misses1 := s.ChainCacheStats()
	if misses1 == 0 {
		t.Fatal("no misses after first verification")
	}
	s.Verify(leafB) // same issuer: served from the memo
	hits2, misses2 := s.ChainCacheStats()
	if misses2 != misses1 {
		t.Fatalf("misses grew %d -> %d on a memoized issuer", misses1, misses2)
	}
	if hits2 == 0 {
		t.Fatal("no hits on a repeated issuer")
	}
}

// Verifies counts the signature checks the store runs: a valid leaf's check
// against its root on every Verify, but a self-signed certificate's
// self-check only once — the certificate stores that verdict, so
// re-validation reads it.
func TestVerifiesCountsSignatureChecks(t *testing.T) {
	root := makeCA(t, 1, "Counting Root")
	s := NewStore()
	s.AddRoot(root.cert)
	leaf := makeLeaf(t, 2, "leaf.example", root, nil)
	self := makeSelfSigned(t, 3, "self.example", nil)
	for round := 1; round <= 2; round++ {
		if got := s.Verify(leaf).Status; got != Valid {
			t.Fatalf("round %d: leaf status %v, want valid", round, got)
		}
		if got := s.Verify(self).Status; got != SelfSigned {
			t.Fatalf("round %d: self-signed status %v", round, got)
		}
	}
	if got := s.Verifies(); got != 3 {
		t.Fatalf("Verifies = %d, want 3: two root checks for the leaf, one self-check", got)
	}
}
