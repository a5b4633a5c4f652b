package scanstore

import (
	"crypto/ed25519"
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"securepki/internal/netsim"
	"securepki/internal/truststore"
	"securepki/internal/x509lite"
)

// signer carries the issuing identity for makeCAPair.
type signer struct {
	name string
	priv ed25519.PrivateKey
}

// makeCAPair creates a CA-flagged certificate, self-signed when parent is
// nil, otherwise signed by the parent.
func makeCAPair(t testing.TB, seed byte, name string, parent *signer) (*x509lite.Certificate, ed25519.PrivateKey) {
	t.Helper()
	s := make([]byte, ed25519.SeedSize)
	s[0] = seed
	priv := ed25519.NewKeyFromSeed(s)
	pub := priv.Public().(ed25519.PublicKey)
	issuer, signKey := name, priv
	if parent != nil {
		issuer, signKey = parent.name, parent.priv
	}
	der, err := x509lite.CreateCertificate(&x509lite.Template{
		Version: 3, SerialNumber: big.NewInt(int64(seed)),
		Subject: x509lite.Name{CommonName: name}, Issuer: x509lite.Name{CommonName: issuer},
		NotBefore: day(0), NotAfter: day(4000),
		IsCA: true, IncludeBasicConstraints: true,
	}, pub, signKey)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509lite.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert, priv
}

// buildSyntheticCorpus makes a corpus with enough structure to exercise the
// parallel paths: many certs, many scans, duplicate sightings, unseen certs.
func buildSyntheticCorpus(t testing.TB) *Corpus {
	t.Helper()
	c := NewCorpus()
	ids := make([]CertID, 60)
	for i := range ids {
		ids[i] = c.Intern(makeCert(t, fmt.Sprintf("par-%d.example", i), byte(100+i)))
	}
	c.Intern(makeCert(t, "never-seen.example", 99)) // no sightings
	for s := 0; s < 25; s++ {
		var obs []Observation
		for i, id := range ids {
			if (i+s)%3 == 0 {
				continue // not every cert in every scan
			}
			obs = append(obs, Observation{Cert: id, IP: netsim.MakeIP(10, byte(s), byte(i), 1)})
			if i%7 == 0 { // duplicate sighting, second IP
				obs = append(obs, Observation{Cert: id, IP: netsim.MakeIP(10, byte(s), byte(i), 2)})
			}
			if i%11 == 0 { // exact duplicate sighting
				obs = append(obs, Observation{Cert: id, IP: netsim.MakeIP(10, byte(s), byte(i), 1)})
			}
		}
		if _, err := c.AddScan(UMich, day(s*3), obs); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// The parallel index build must be byte-identical to the serial one at every
// worker count, including the precomputed accessors. Every certificate's
// sightings are capacity-capped, so an append cannot reach the next
// certificate's, and a never-observed certificate's stay nil.
func TestBuildIndexSerialParallelEquivalence(t *testing.T) {
	c := buildSyntheticCorpus(t)
	serial := c.BuildIndexWorkers(1)
	for _, workers := range []int{2, 3, 8, 0} {
		par := c.BuildIndexWorkers(workers)
		for id := 0; id < c.NumCerts(); id++ {
			cid := CertID(id)
			if s := par.Sightings(cid); cap(s) != len(s) || (s != nil && len(s) == 0) {
				t.Fatalf("workers=%d cert %d: sightings len %d cap %d; want capacity-capped, nil if never observed", workers, id, len(s), cap(s))
			}
			if !reflect.DeepEqual(serial.Sightings(cid), par.Sightings(cid)) {
				t.Fatalf("workers=%d cert %d: sightings differ", workers, id)
			}
			if !reflect.DeepEqual(serial.ScansSeen(cid), par.ScansSeen(cid)) {
				t.Fatalf("workers=%d cert %d: ScansSeen differ", workers, id)
			}
			for _, scan := range serial.ScansSeen(cid) {
				if !reflect.DeepEqual(serial.IPsInScan(cid, scan), par.IPsInScan(cid, scan)) {
					t.Fatalf("workers=%d cert %d scan %d: IPsInScan differ", workers, id, scan)
				}
			}
			if serial.AvgIPsPerScan(cid) != par.AvgIPsPerScan(cid) {
				t.Fatalf("workers=%d cert %d: AvgIPsPerScan differ", workers, id)
			}
			if serial.MaxIPsInAnyScan(cid) != par.MaxIPsInAnyScan(cid) {
				t.Fatalf("workers=%d cert %d: MaxIPsInAnyScan differ", workers, id)
			}
		}
	}
}

// TestBuildIndexExtEmpty pins the empty corpus: no certs, no scans. The test
// dates from the external-merge build; it now covers the counting-sort build
// at the default, serial and fanned-out worker counts.
func TestBuildIndexExtEmpty(t *testing.T) {
	c := NewCorpus()
	for _, idx := range []*Index{c.BuildIndex(), c.BuildIndexWorkers(1), c.BuildIndexWorkers(8)} {
		if idx == nil {
			t.Fatal("nil index for empty corpus")
		}
		if len(idx.sightings) != 0 || len(idx.scansSeen) != 0 || len(idx.perScan) != 0 {
			t.Fatalf("empty corpus: %d sighting lists, %d scan lists, %d per-scan lists; want none",
				len(idx.sightings), len(idx.scansSeen), len(idx.perScan))
		}
	}
}

// Parallel validation must agree with serial validation on both the counts
// map and every per-certificate status.
func TestValidateSerialParallelEquivalence(t *testing.T) {
	build := func() (*Corpus, *truststore.Store) {
		c := buildSyntheticCorpus(t)
		return c, truststore.NewStore()
	}
	cSerial, sSerial := build()
	wantCounts := cSerial.ValidateWorkers(sSerial, 1)
	wantStatus := make([]truststore.Status, cSerial.NumCerts())
	for i := range wantStatus {
		wantStatus[i] = cSerial.Cert(CertID(i)).Status
	}
	for _, workers := range []int{2, 5, 0} {
		cPar, sPar := build()
		gotCounts := cPar.ValidateWorkers(sPar, workers)
		if !reflect.DeepEqual(wantCounts, gotCounts) {
			t.Fatalf("workers=%d: counts %v, want %v", workers, gotCounts, wantCounts)
		}
		for i := range wantStatus {
			if got := cPar.Cert(CertID(i)).Status; got != wantStatus[i] {
				t.Fatalf("workers=%d cert %d: status %v, want %v", workers, i, got, wantStatus[i])
			}
		}
	}
}

// Regression: Validate must be re-entrant. A second call re-classifies
// identically and must not grow the store's intermediate pool (every CA cert
// is pooled on each call; AddIntermediate dedupes by fingerprint).
func TestValidateReentrant(t *testing.T) {
	// Root → intermediate → leaf, with the intermediate interned so Validate
	// pools it (the §4.2 transvalid path), plus self-signed leaves.
	root, rootPriv := makeCAPair(t, 0xd0, "Reentrant Root", nil)
	inter, _ := makeCAPair(t, 0xd1, "Reentrant Inter", &signer{name: "Reentrant Root", priv: rootPriv})

	c := NewCorpus()
	c.Intern(inter)
	for i := 0; i < 5; i++ {
		c.Intern(makeCert(t, fmt.Sprintf("reentrant-%d", i), byte(210+i)))
	}

	store := truststore.NewStore()
	store.AddRoot(root)
	first := c.Validate(store)
	inters := store.NumIntermediates()
	if inters != 1 {
		t.Fatalf("expected the CA cert pooled once, got %d intermediates", inters)
	}
	statuses := make([]truststore.Status, c.NumCerts())
	for i := range statuses {
		statuses[i] = c.Cert(CertID(i)).Status
	}
	for round := 0; round < 2; round++ {
		again := c.Validate(store)
		if !reflect.DeepEqual(first, again) {
			t.Errorf("re-validation changed counts: %v then %v", first, again)
		}
		if got := store.NumIntermediates(); got != inters {
			t.Errorf("re-validation grew the intermediate pool: %d -> %d", inters, got)
		}
		for i := range statuses {
			if got := c.Cert(CertID(i)).Status; got != statuses[i] {
				t.Errorf("re-validation changed cert %d status: %v -> %v", i, statuses[i], got)
			}
		}
	}
}
