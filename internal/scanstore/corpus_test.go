package scanstore

import (
	"crypto/ed25519"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/truststore"
	"securepki/internal/x509lite"
)

var nextSerial int64 = 1

func makeCert(t testing.TB, cn string, seed byte) *x509lite.Certificate {
	t.Helper()
	s := make([]byte, ed25519.SeedSize)
	s[0] = seed
	s[1] = byte(nextSerial)
	priv := ed25519.NewKeyFromSeed(s)
	pub := priv.Public().(ed25519.PublicKey)
	nextSerial++
	der, err := x509lite.CreateCertificate(&x509lite.Template{
		Version:      3,
		SerialNumber: big.NewInt(nextSerial),
		Subject:      x509lite.Name{CommonName: cn},
		Issuer:       x509lite.Name{CommonName: cn},
		NotBefore:    time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2033, 1, 1, 0, 0, 0, 0, time.UTC),
	}, pub, priv)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509lite.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

func day(n int) time.Time {
	return time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

func TestInternDeduplicates(t *testing.T) {
	c := NewCorpus()
	cert := makeCert(t, "a.example", 1)
	id1 := c.Intern(cert)
	// Re-parse the same DER: same fingerprint, same ID.
	dup, _ := x509lite.Parse(cert.Raw)
	id2 := c.Intern(dup)
	if id1 != id2 {
		t.Errorf("identical certs got IDs %d and %d", id1, id2)
	}
	if c.NumCerts() != 1 {
		t.Errorf("NumCerts = %d", c.NumCerts())
	}
	other := c.Intern(makeCert(t, "b.example", 2))
	if other == id1 {
		t.Error("distinct certs share an ID")
	}
	if got, ok := c.Lookup(cert.Fingerprint()); !ok || got != id1 {
		t.Errorf("Lookup = %d, %v", got, ok)
	}
}

func TestAddScanOrdering(t *testing.T) {
	c := NewCorpus()
	if _, err := c.AddScan(UMich, day(5), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddScan(Rapid7, day(3), nil); err == nil {
		t.Error("out-of-order scan accepted")
	}
	if _, err := c.AddScan(Rapid7, day(5), nil); err != nil {
		t.Errorf("same-day scan rejected: %v", err)
	}
}

func TestLifetimeSemantics(t *testing.T) {
	c := NewCorpus()
	a := c.Intern(makeCert(t, "once.example", 3))
	b := c.Intern(makeCert(t, "weekly.example", 4))

	c.AddScan(UMich, day(0), []Observation{
		{Cert: a, IP: netsim.MakeIP(1, 2, 3, 4)},
		{Cert: b, IP: netsim.MakeIP(5, 6, 7, 8)},
	})
	c.AddScan(UMich, day(7), []Observation{
		{Cert: b, IP: netsim.MakeIP(5, 6, 7, 8)},
	})
	idx := c.BuildIndexWorkers(0)

	// Paper §5.1: single sighting → 1 day; sightings a week apart → 8 days.
	if lt, ok := idx.LifetimeDays(a); !ok || lt != 1 {
		t.Errorf("single-scan lifetime = %d, %v", lt, ok)
	}
	if lt, ok := idx.LifetimeDays(b); !ok || lt != 8 {
		t.Errorf("week-apart lifetime = %d, %v", lt, ok)
	}
}

func TestLifetimeUnseen(t *testing.T) {
	c := NewCorpus()
	id := c.Intern(makeCert(t, "ghost.example", 5))
	idx := c.BuildIndexWorkers(0)
	if _, ok := idx.LifetimeDays(id); ok {
		t.Error("unseen cert reported a lifetime")
	}
	if _, ok := idx.FirstSeen(id); ok {
		t.Error("unseen cert reported FirstSeen")
	}
	if _, ok := idx.LastSeen(id); ok {
		t.Error("unseen cert reported LastSeen")
	}
}

func TestIPsInScanAndMax(t *testing.T) {
	c := NewCorpus()
	id := c.Intern(makeCert(t, "shared.example", 6))
	ipA, ipB := netsim.MakeIP(10, 0, 0, 1), netsim.MakeIP(10, 0, 0, 2)
	c.AddScan(UMich, day(0), []Observation{
		{Cert: id, IP: ipA},
		{Cert: id, IP: ipB},
		{Cert: id, IP: ipA}, // duplicate sighting same scan, same IP
	})
	c.AddScan(UMich, day(3), []Observation{{Cert: id, IP: ipA}})
	idx := c.BuildIndexWorkers(0)

	ips := idx.IPsInScan(id, 0)
	if len(ips) != 2 || ips[0] != ipA || ips[1] != ipB {
		t.Errorf("IPsInScan = %v", ips)
	}
	if got := idx.MaxIPsInAnyScan(id); got != 2 {
		t.Errorf("MaxIPsInAnyScan = %d", got)
	}
	if got := idx.AvgIPsPerScan(id); got != 1.5 {
		t.Errorf("AvgIPsPerScan = %v", got)
	}
	scans := idx.ScansSeen(id)
	if len(scans) != 2 || scans[0] != 0 || scans[1] != 1 {
		t.Errorf("ScansSeen = %v", scans)
	}
}

func TestValidateClassifiesAndPoolsIntermediates(t *testing.T) {
	// Build a root + intermediate + leaf; the corpus must classify the leaf
	// valid via transvalid completion because the intermediate is interned.
	rootSeed := make([]byte, ed25519.SeedSize)
	rootSeed[0] = 0xaa
	rootPriv := ed25519.NewKeyFromSeed(rootSeed)
	rootPub := rootPriv.Public().(ed25519.PublicKey)
	rootDER, _ := x509lite.CreateCertificate(&x509lite.Template{
		Version: 3, SerialNumber: big.NewInt(1),
		Subject: x509lite.Name{CommonName: "Root"}, Issuer: x509lite.Name{CommonName: "Root"},
		NotBefore: day(0), NotAfter: day(4000),
		IsCA: true, IncludeBasicConstraints: true,
	}, rootPub, rootPriv)
	root, _ := x509lite.Parse(rootDER)

	interSeed := make([]byte, ed25519.SeedSize)
	interSeed[0] = 0xbb
	interPriv := ed25519.NewKeyFromSeed(interSeed)
	interPub := interPriv.Public().(ed25519.PublicKey)
	interDER, _ := x509lite.CreateCertificate(&x509lite.Template{
		Version: 3, SerialNumber: big.NewInt(2),
		Subject: x509lite.Name{CommonName: "Inter"}, Issuer: x509lite.Name{CommonName: "Root"},
		NotBefore: day(0), NotAfter: day(4000),
		IsCA: true, IncludeBasicConstraints: true,
	}, interPub, rootPriv)
	inter, _ := x509lite.Parse(interDER)

	leafSeed := make([]byte, ed25519.SeedSize)
	leafSeed[0] = 0xcc
	leafPriv := ed25519.NewKeyFromSeed(leafSeed)
	leafPub := leafPriv.Public().(ed25519.PublicKey)
	leafDER, _ := x509lite.CreateCertificate(&x509lite.Template{
		Version: 3, SerialNumber: big.NewInt(3),
		Subject: x509lite.Name{CommonName: "www.example.com"}, Issuer: x509lite.Name{CommonName: "Inter"},
		NotBefore: day(0), NotAfter: day(365),
	}, leafPub, interPriv)
	leaf, _ := x509lite.Parse(leafDER)

	selfDER, _ := x509lite.CreateCertificate(&x509lite.Template{
		Version: 3, SerialNumber: big.NewInt(4),
		Subject: x509lite.Name{CommonName: "192.168.1.1"}, Issuer: x509lite.Name{CommonName: "192.168.1.1"},
		NotBefore: day(0), NotAfter: day(8000),
	}, leafPub, leafPriv)
	self, _ := x509lite.Parse(selfDER)

	c := NewCorpus()
	leafID := c.Intern(leaf)
	c.Intern(inter)
	selfID := c.Intern(self)

	store := truststore.NewStore()
	store.AddRoot(root)
	counts := c.ValidateWorkers(store, 0)

	if c.Cert(leafID).Status != truststore.Valid {
		t.Errorf("transvalid leaf = %v", c.Cert(leafID).Status)
	}
	if c.Cert(selfID).Status != truststore.SelfSigned {
		t.Errorf("self-signed = %v", c.Cert(selfID).Status)
	}
	if counts[truststore.Valid] != 2 { // leaf + intermediate
		t.Errorf("valid count = %d", counts[truststore.Valid])
	}
	if counts[truststore.SelfSigned] != 1 {
		t.Errorf("self-signed count = %d", counts[truststore.SelfSigned])
	}
}

func TestOperatorString(t *testing.T) {
	if UMich.String() != "Univ. Michigan" || Rapid7.String() != "Rapid7" || Operator(9).String() != "unknown" {
		t.Error("operator labels wrong")
	}
}

func TestScanDay(t *testing.T) {
	c := NewCorpus()
	at := time.Date(2013, 5, 2, 17, 45, 0, 0, time.UTC)
	id, _ := c.AddScan(UMich, at, nil)
	want := time.Date(2013, 5, 2, 0, 0, 0, 0, time.UTC)
	if !c.Scan(id).Day().Equal(want) {
		t.Errorf("Day() = %v", c.Scan(id).Day())
	}
}

// Property: lifetime is consistent with FirstSeen/LastSeen for arbitrary
// sighting patterns.
func TestLifetimeConsistencyProperty(t *testing.T) {
	f := func(scanGaps []uint8, present []bool) bool {
		c := NewCorpus()
		id := c.Intern(makeCert(t, "prop.example", 30))
		at := day(0)
		n := len(scanGaps)
		if n > 20 {
			n = 20
		}
		sawAny := false
		for i := 0; i < n; i++ {
			var obs []Observation
			if i < len(present) && present[i] {
				obs = []Observation{{Cert: id, IP: netsim.MakeIP(9, 9, 9, 9)}}
				sawAny = true
			}
			if _, err := c.AddScan(UMich, at, obs); err != nil {
				return false
			}
			at = at.AddDate(0, 0, int(scanGaps[i]%30)+1)
		}
		idx := c.BuildIndexWorkers(0)
		lt, ok := idx.LifetimeDays(id)
		if !sawAny {
			return !ok
		}
		if !ok || lt < 1 {
			return false
		}
		first, _ := idx.FirstSeen(id)
		last, _ := idx.LastSeen(id)
		want := int(last.Sub(first).Hours()/24) + 1
		return lt == want && !last.Before(first)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntern(b *testing.B) {
	certs := make([]*x509lite.Certificate, 64)
	for i := range certs {
		certs[i] = makeCert(b, fmt.Sprintf("bench-%d.example", i), byte(40+i))
	}
	c := NewCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Intern(certs[i%len(certs)])
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	c := NewCorpus()
	ids := make([]CertID, 200)
	for i := range ids {
		ids[i] = c.Intern(makeCert(b, fmt.Sprintf("idx-%d.example", i), byte(i)))
	}
	for s := 0; s < 30; s++ {
		obs := make([]Observation, 0, len(ids))
		for i, id := range ids {
			obs = append(obs, Observation{Cert: id, IP: netsim.MakeIP(10, byte(s), byte(i), 1)})
		}
		c.AddScan(UMich, day(s*7), obs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.BuildIndexWorkers(0)
	}
}
