package scanstore

import (
	"crypto/ed25519"
	"fmt"
	"math/big"
	"reflect"
	"slices"
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
// dates from the external-merge build; it now covers the offset-array build
// at the default, serial and fanned-out worker counts: every backing array
// is empty and every offset array holds only its leading zero.
func TestBuildIndexExtEmpty(t *testing.T) {
	c := NewCorpus()
	for _, idx := range []*Index{c.BuildIndexWorkers(0), c.BuildIndexWorkers(1), c.BuildIndexWorkers(8)} {
		if idx == nil {
			t.Fatal("nil index for empty corpus")
		}
		if len(idx.sightings) != 0 || len(idx.runScans) != 0 || len(idx.ips) != 0 {
			t.Fatalf("empty corpus: %d sightings, %d runs, %d IPs; want none",
				len(idx.sightings), len(idx.runScans), len(idx.ips))
		}
		zero := []int{0}
		if !reflect.DeepEqual(idx.sightingOff, zero) || !reflect.DeepEqual(idx.runOff, zero) || !reflect.DeepEqual(idx.ipOff, zero) {
			t.Fatalf("empty corpus: offsets %v %v %v; want [0] each", idx.sightingOff, idx.runOff, idx.ipOff)
		}
	}
}

// refIndex is the per-certificate index built the way it was before the
// offset arrays: one sighting list per certificate, in scan order, and per
// scan it appeared in, its distinct IPs sorted.
type refIndex struct {
	sightings [][]Sighting
	scans     [][]ScanID
	ips       []map[ScanID][]netsim.IP
}

func buildRefIndex(c *Corpus) refIndex {
	ref := refIndex{
		sightings: make([][]Sighting, c.NumCerts()),
		scans:     make([][]ScanID, c.NumCerts()),
		ips:       make([]map[ScanID][]netsim.IP, c.NumCerts()),
	}
	for _, scan := range c.Scans() {
		for _, obs := range scan.Obs {
			ref.sightings[obs.Cert] = append(ref.sightings[obs.Cert], Sighting{Scan: scan.ID, IP: obs.IP})
		}
	}
	for id, s := range ref.sightings {
		ref.ips[id] = make(map[ScanID][]netsim.IP)
		for _, sg := range s {
			if !slices.Contains(ref.ips[id][sg.Scan], sg.IP) {
				ref.ips[id][sg.Scan] = append(ref.ips[id][sg.Scan], sg.IP)
			}
			if n := len(ref.scans[id]); n == 0 || ref.scans[id][n-1] != sg.Scan {
				ref.scans[id] = append(ref.scans[id], sg.Scan)
			}
		}
		for _, ips := range ref.ips[id] {
			slices.Sort(ips)
		}
	}
	return ref
}

// checkIndexAgainstReference builds c's index at the worker count and
// checks every accessor against buildRefIndex, per certificate and scan.
// Then it appends to every slice an accessor returns and checks everything
// again: a returned slice must never share spare capacity with another.
func checkIndexAgainstReference(t testing.TB, c *Corpus, workers int) {
	t.Helper()
	ref := buildRefIndex(c)
	idx := c.BuildIndexWorkers(workers)
	check := func(pass string) {
		t.Helper()
		for id := range c.NumCerts() {
			cid := CertID(id)
			if got := idx.Sightings(cid); !reflect.DeepEqual(got, ref.sightings[id]) {
				t.Fatalf("%s, workers=%d cert %d: Sightings %v, want %v", pass, workers, id, got, ref.sightings[id])
			}
			if got := idx.ScansSeen(cid); !reflect.DeepEqual(got, ref.scans[id]) {
				t.Fatalf("%s, workers=%d cert %d: ScansSeen %v, want %v", pass, workers, id, got, ref.scans[id])
			}
			total, most := 0, 0
			for s := range c.NumScans() {
				want := ref.ips[id][ScanID(s)]
				if got := idx.IPsInScan(cid, ScanID(s)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, workers=%d cert %d scan %d: IPsInScan %v, want %v", pass, workers, id, s, got, want)
				}
				total += len(want)
				most = max(most, len(want))
			}
			wantAvg := 0.0
			if len(ref.scans[id]) > 0 {
				wantAvg = float64(total) / float64(len(ref.scans[id]))
			}
			if got := idx.AvgIPsPerScan(cid); got != wantAvg {
				t.Fatalf("%s, workers=%d cert %d: AvgIPsPerScan %v, want %v", pass, workers, id, got, wantAvg)
			}
			if got := idx.MaxIPsInAnyScan(cid); got != most {
				t.Fatalf("%s, workers=%d cert %d: MaxIPsInAnyScan %d, want %d", pass, workers, id, got, most)
			}
			first, okFirst := idx.FirstSeen(cid)
			last, okLast := idx.LastSeen(cid)
			days, okDays := idx.LifetimeDays(cid)
			if s := ref.sightings[id]; len(s) == 0 {
				if okFirst || okLast || okDays {
					t.Fatalf("%s, workers=%d cert %d: never observed but has a lifetime", pass, workers, id)
				}
			} else {
				wantFirst, wantLast := c.Scan(s[0].Scan).Time, c.Scan(s[len(s)-1].Scan).Time
				if !first.Equal(wantFirst) || !last.Equal(wantLast) || days != int(wantLast.Sub(wantFirst).Hours()/24)+1 {
					t.Fatalf("%s, workers=%d cert %d: seen %v..%v over %d days", pass, workers, id, first, last, days)
				}
			}
		}
	}
	check("fresh")
	for id := range c.NumCerts() {
		cid := CertID(id)
		_ = append(idx.Sightings(cid), Sighting{Scan: -1, IP: 0xffffffff})
		_ = append(idx.ScansSeen(cid), -1)
		for _, s := range idx.ScansSeen(cid) {
			_ = append(idx.IPsInScan(cid, s), 0xffffffff)
		}
	}
	check("after appends")
}

func TestIndexMatchesReference(t *testing.T) {
	c := buildSyntheticCorpus(t)
	for _, workers := range []int{1, 8} {
		checkIndexAgainstReference(t, c, workers)
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
	first := c.ValidateWorkers(store, 0)
	inters := store.NumIntermediates()
	if inters != 1 {
		t.Fatalf("expected the CA cert pooled once, got %d intermediates", inters)
	}
	statuses := make([]truststore.Status, c.NumCerts())
	for i := range statuses {
		statuses[i] = c.Cert(CertID(i)).Status
	}
	for round := 0; round < 2; round++ {
		again := c.ValidateWorkers(store, 0)
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
