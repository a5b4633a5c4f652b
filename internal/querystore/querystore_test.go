package querystore

import (
	"bytes"
	"compress/gzip"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/obs"
	"securepki/internal/scanstore"
	"securepki/internal/snapshot"
	"securepki/internal/x509lite"
)

// testCorpus mirrors internal/snapshot's deterministic corpus builder so the
// store can be checked against ground truth.
func testCorpus(tb testing.TB, nCerts, nScans, obsPerScan int) *scanstore.Corpus {
	tb.Helper()
	c := scanstore.NewCorpus()
	for i := 0; i < nCerts; i++ {
		seed := make([]byte, ed25519.SeedSize)
		binary.LittleEndian.PutUint64(seed, uint64(i)+1)
		priv := ed25519.NewKeyFromSeed(seed)
		der, err := x509lite.CreateCertificate(&x509lite.Template{
			Version:      3,
			SerialNumber: big.NewInt(int64(i) + 1),
			Subject:      x509lite.Name{CommonName: fmt.Sprintf("device-%d.local", i)},
			Issuer:       x509lite.Name{CommonName: fmt.Sprintf("device-%d.local", i)},
			NotBefore:    time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:     time.Date(2033, 3, 1, 0, 0, 0, 0, time.UTC),
			DNSNames:     []string{fmt.Sprintf("device-%d.local", i)},
		}, priv.Public().(ed25519.PublicKey), priv)
		if err != nil {
			tb.Fatal(err)
		}
		cert, err := x509lite.Parse(der)
		if err != nil {
			tb.Fatal(err)
		}
		c.Intern(cert)
	}
	base := time.Date(2013, 6, 1, 4, 30, 0, 0, time.UTC)
	for s := 0; s < nScans; s++ {
		obsList := make([]scanstore.Observation, obsPerScan)
		for j := range obsList {
			obsList[j] = scanstore.Observation{
				Cert: scanstore.CertID((s*131 + j*89) % nCerts),
				IP:   netsim.IP(0x0a000000 + uint32((j*99991+s*7)%(1<<24))),
			}
		}
		op := scanstore.UMich
		if s%3 == 1 {
			op = scanstore.Rapid7
		}
		if _, err := c.AddScan(op, base.AddDate(0, 0, s).Add(time.Duration(s)*time.Minute), obsList); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// testASOf is the same synthetic network view the snapshot tests use.
func testASOf(ip netsim.IP, _ time.Time) (int, bool) {
	b := uint32(ip)
	switch {
	case b>>24 == 10:
		return 64512 + int((b>>16)&0xff)%7, true
	case b>>24 == 192:
		return 0, false
	default:
		return 65000, true
	}
}

// writeV3File writes the corpus to a v3 snapshot in a temp dir and returns
// its path. Small shards so the cache and multi-shard paths get exercised.
func writeV3File(tb testing.TB, c *scanstore.Corpus, opt snapshot.Options) string {
	tb.Helper()
	if opt.CertsPerShard == 0 {
		opt.CertsPerShard = 64
	}
	path := filepath.Join(tb.TempDir(), "corpus.v3")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := snapshot.WriteV3(f, c, opt); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// openPread opens a store on the io.ReaderAt path over the file at path,
// which stays open until the test ends.
func openPread(tb testing.TB, path string, opt Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tb.Cleanup(func() { f.Close() })
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return OpenReaderAt(f, fi.Size(), opt)
}

// TestStoreLookupsMatchCorpus drives every lookup against brute force over
// the source corpus, on both the mmap and the pread path.
func TestStoreLookupsMatchCorpus(t *testing.T) {
	c := testCorpus(t, 300, 9, 40)
	path := writeV3File(t, c, snapshot.Options{ASOf: testASOf})

	for _, mode := range []struct {
		name string
		open func(t *testing.T) (*Store, error)
	}{
		{"mmap", func(*testing.T) (*Store, error) { return Open(path, Options{}) }},
		{"pread", func(t *testing.T) (*Store, error) { return openPread(t, path, Options{}) }},
		{"verify", func(*testing.T) (*Store, error) { return Open(path, Options{VerifyDigests: true}) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			st, err := mode.open(t)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			checkStoreAgainstCorpus(t, st, c)
		})
	}
}

func checkStoreAgainstCorpus(t *testing.T, st *Store, c *scanstore.Corpus) {
	t.Helper()
	if st.NumCerts() != c.NumCerts() || st.NumScans() != c.NumScans() {
		t.Fatalf("counts: store %d/%d, corpus %d/%d", st.NumCerts(), st.NumScans(), c.NumCerts(), c.NumScans())
	}

	// Every certificate comes back byte-identical by fingerprint.
	bySPKI := map[x509lite.Fingerprint][]x509lite.Fingerprint{}
	for i := 0; i < c.NumCerts(); i++ {
		rec := c.Cert(scanstore.CertID(i))
		cert, ok, err := st.ByFingerprint(rec.Cert.Fingerprint())
		if err != nil {
			t.Fatalf("cert %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("cert %d: not found", i)
		}
		if !bytes.Equal(cert.Raw, rec.Cert.Raw) {
			t.Fatalf("cert %d: DER differs", i)
		}
		bySPKI[rec.Cert.PublicKeyFingerprint()] = append(bySPKI[rec.Cert.PublicKeyFingerprint()], rec.Cert.Fingerprint())
	}
	// A fingerprint not in the corpus misses cleanly.
	var absent x509lite.Fingerprint
	absent[0] = 0xff
	if _, ok, err := st.ByFingerprint(absent); err != nil || ok {
		t.Fatalf("absent fingerprint: ok=%v err=%v", ok, err)
	}

	// SPKI groups match brute force (the index orders refs by sorted-fp
	// position, so compare as sets via sorting).
	for spki, want := range bySPKI {
		got, ok, err := st.BySPKI(spki)
		if err != nil || !ok {
			t.Fatalf("spki %s: ok=%v err=%v", spki, ok, err)
		}
		sortFPs(want)
		sortFPs(got)
		if len(got) != len(want) {
			t.Fatalf("spki %s: %d certs, want %d", spki, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("spki %s: member %d differs", spki, i)
			}
		}
	}
	if _, ok, err := st.BySPKI(absent); err != nil || ok {
		t.Fatalf("absent spki: ok=%v err=%v", ok, err)
	}

	// IP sightings match brute force over all scans.
	type sightKey struct {
		scan int
		fp   x509lite.Fingerprint
	}
	byIP := map[netsim.IP]map[sightKey]bool{}
	byAS := map[int]map[x509lite.Fingerprint]bool{}
	scans := c.Scans()
	for si, scan := range scans {
		for _, o := range scan.Obs {
			fp := c.Cert(o.Cert).Cert.Fingerprint()
			if byIP[o.IP] == nil {
				byIP[o.IP] = map[sightKey]bool{}
			}
			byIP[o.IP][sightKey{si, fp}] = true
			if asn, ok := testASOf(o.IP, scan.Time); ok {
				if byAS[asn] == nil {
					byAS[asn] = map[x509lite.Fingerprint]bool{}
				}
				byAS[asn][fp] = true
			}
		}
	}
	for ip, want := range byIP {
		got, ok, err := st.ByIP(ip)
		if err != nil || !ok {
			t.Fatalf("ip %d: ok=%v err=%v", uint32(ip), ok, err)
		}
		if len(got) != len(want) {
			t.Fatalf("ip %d: %d sightings, want %d", uint32(ip), len(got), len(want))
		}
		for _, sg := range got {
			if !want[sightKey{sg.Scan, sg.Fingerprint}] {
				t.Fatalf("ip %d: unexpected sighting scan=%d fp=%s", uint32(ip), sg.Scan, sg.Fingerprint)
			}
			scan := scans[sg.Scan]
			if sg.Operator != scan.Operator || !sg.Time.Equal(scan.Time) {
				t.Fatalf("ip %d: scan meta differs: %v/%v vs %v/%v", uint32(ip), sg.Operator, sg.Time, scan.Operator, scan.Time)
			}
		}
	}
	if _, ok, err := st.ByIP(netsim.IP(1)); err != nil || ok {
		t.Fatalf("absent ip: ok=%v err=%v", ok, err)
	}

	// AS cert sets match brute force.
	for asn, want := range byAS {
		got, ok, err := st.ByAS(asn)
		if err != nil || !ok {
			t.Fatalf("as %d: ok=%v err=%v", asn, ok, err)
		}
		if len(got) != len(want) {
			t.Fatalf("as %d: %d certs, want %d", asn, len(got), len(want))
		}
		for _, fp := range got {
			if !want[fp] {
				t.Fatalf("as %d: unexpected cert %s", asn, fp)
			}
		}
	}
	for _, asn := range []int{1, -1, 1 << 40} {
		if _, ok, err := st.ByAS(asn); err != nil || ok {
			t.Fatalf("absent as %d: ok=%v err=%v", asn, ok, err)
		}
	}
}

func sortFPs(fps []x509lite.Fingerprint) {
	sort.Slice(fps, func(i, j int) bool { return bytes.Compare(fps[i][:], fps[j][:]) < 0 })
}

// TestStoreWithoutASIndex: a snapshot written with no network view answers
// false for every AS but serves the other three indexes.
func TestStoreWithoutASIndex(t *testing.T) {
	c := testCorpus(t, 40, 3, 16)
	path := writeV3File(t, c, snapshot.Options{})
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok, err := st.ByAS(64512); err != nil || ok {
		t.Fatalf("ByAS on AS-less snapshot: ok=%v err=%v", ok, err)
	}
	if st.Stats().ASKeys != 0 {
		t.Fatalf("ASKeys = %d, want 0", st.Stats().ASKeys)
	}
	rec := c.Cert(0)
	if _, ok, err := st.ByFingerprint(rec.Cert.Fingerprint()); err != nil || !ok {
		t.Fatalf("ByFingerprint: ok=%v err=%v", ok, err)
	}
}

// TestStoreCacheBounded: with a 2-shard cache, touching certs across many
// shards keeps residency at 2 and records evictions.
func TestStoreCacheBounded(t *testing.T) {
	c := testCorpus(t, 256, 2, 8)
	path := writeV3File(t, c, snapshot.Options{CertsPerShard: 32}) // 8 shards
	reg := obs.NewRegistry()
	st, err := Open(path, Options{CacheShards: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < c.NumCerts(); i++ {
		if _, ok, err := st.ByFingerprint(c.Cert(scanstore.CertID(i)).Cert.Fingerprint()); err != nil || !ok {
			t.Fatalf("cert %d: ok=%v err=%v", i, ok, err)
		}
	}
	if n := st.cache.len(); n > 2 {
		t.Fatalf("cache holds %d shards, cap 2", n)
	}
	if v := reg.Counter("query.cache.evict").Value(); v == 0 {
		t.Fatal("no evictions recorded")
	}
	if v := reg.Counter("query.lookup.fingerprint").Value(); v != int64(c.NumCerts()) {
		t.Fatalf("query.lookup.fingerprint = %d, want %d", v, c.NumCerts())
	}
	// Re-walking one shard's certs hits the cache.
	before := reg.Counter("query.cache.hit").Value()
	for i := 0; i < 16; i++ {
		if _, _, err := st.ByFingerprint(c.Cert(scanstore.CertID(i)).Cert.Fingerprint()); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Counter("query.cache.hit").Value() == before {
		t.Fatal("repeat lookups did not hit the cache")
	}
}

// TestOpenRejectsOldFormats: files of the retired formats — a v2 magic,
// v1's gzip stream — are refused with an explicit error, not a panic or a
// garbage answer.
func TestOpenRejectsOldFormats(t *testing.T) {
	c := testCorpus(t, 8, 1, 4)
	var v3 bytes.Buffer
	if err := snapshot.WriteV3(&v3, c, snapshot.Options{}); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(v3.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"corpus.v2": append([]byte("SPKISNP2"), v3.Bytes()[8:]...),
		"corpus.gz": gz.Bytes(),
	} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path, Options{})
		if err == nil {
			t.Fatalf("Open accepted %s", name)
		}
		if !strings.Contains(err.Error(), "not a v3 snapshot") {
			t.Fatalf("%s: error does not say the file is not a v3 snapshot: %v", name, err)
		}
	}
}

// TestOpenReaderAt: the explicit ReaderAt seam serves the same answers.
func TestOpenReaderAt(t *testing.T) {
	c := testCorpus(t, 64, 2, 8)
	var buf bytes.Buffer
	if err := snapshot.WriteV3(&buf, c, snapshot.Options{CertsPerShard: 16, ASOf: testASOf}); err != nil {
		t.Fatal(err)
	}
	st, err := OpenReaderAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkStoreAgainstCorpus(t, st, c)
}

// TestStoreConcurrent hammers the store from many goroutines with the race
// detector in mind: concurrent misses, hits and evictions on a tiny cache.
func TestStoreConcurrent(t *testing.T) {
	c := testCorpus(t, 128, 4, 32)
	path := writeV3File(t, c, snapshot.Options{CertsPerShard: 16, ASOf: testASOf})
	st, err := Open(path, Options{CacheShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				rec := c.Cert(scanstore.CertID((g*37 + i*13) % c.NumCerts()))
				cert, ok, err := st.ByFingerprint(rec.Cert.Fingerprint())
				if err != nil || !ok {
					done <- fmt.Errorf("goroutine %d: ok=%v err=%v", g, ok, err)
					return
				}
				if !bytes.Equal(cert.Raw, rec.Cert.Raw) {
					done <- fmt.Errorf("goroutine %d: DER differs", g)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestNegativeLookupGuard: probes outside the persisted key ranges miss via
// the range guard — counted on query.lookup.miss_guarded — and a store whose
// AS section is empty guards every ByAS.
func TestNegativeLookupGuard(t *testing.T) {
	c := testCorpus(t, 40, 3, 10)
	path := writeV3File(t, c, snapshot.Options{ASOf: testASOf})
	reg := obs.NewRegistry()
	st, err := Open(path, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	guarded := reg.Counter("query.lookup.miss_guarded")
	misses := reg.Counter("query.lookup.miss")
	var zeroFP, maxFP x509lite.Fingerprint
	for i := range maxFP {
		maxFP[i] = 0xff
	}
	for _, fp := range []x509lite.Fingerprint{zeroFP, maxFP} {
		if _, ok, err := st.ByFingerprint(fp); err != nil || ok {
			t.Fatalf("ByFingerprint(%s): ok=%v err=%v", fp, ok, err)
		}
		if _, ok, err := st.BySPKI(fp); err != nil || ok {
			t.Fatalf("BySPKI(%s): ok=%v err=%v", fp, ok, err)
		}
	}
	// testCorpus IPs live in 10.0.0.0/8 and testASOf maps them near 64512.
	for _, ip := range []netsim.IP{0, netsim.IP(0xffffffff)} {
		if _, ok, err := st.ByIP(ip); err != nil || ok {
			t.Fatalf("ByIP(%d): ok=%v err=%v", ip, ok, err)
		}
	}
	for _, asn := range []int{1, 1 << 31} {
		if _, ok, err := st.ByAS(asn); err != nil || ok {
			t.Fatalf("ByAS(%d): ok=%v err=%v", asn, ok, err)
		}
	}
	if g := guarded.Value(); g != 8 {
		t.Fatalf("query.lookup.miss_guarded = %d, want 8", g)
	}
	if m := misses.Value(); m != 8 {
		t.Fatalf("query.lookup.miss = %d, want 8", m)
	}

	// Hits are unaffected by the guard.
	rec := c.Cert(0)
	if _, ok, err := st.ByFingerprint(rec.Cert.Fingerprint()); err != nil || !ok {
		t.Fatalf("hit after guard: ok=%v err=%v", ok, err)
	}
	if g := guarded.Value(); g != 8 {
		t.Fatalf("hit bumped miss_guarded to %d", g)
	}

	// A snapshot written without a network view guards every AS probe via the
	// empty-section sentinel.
	noAS, err := Open(writeV3File(t, c, snapshot.Options{}), Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer noAS.Close()
	for _, asn := range []int{0, 64512, 1 << 31} {
		if _, ok, err := noAS.ByAS(asn); err != nil || ok {
			t.Fatalf("empty-AS ByAS(%d): ok=%v err=%v", asn, ok, err)
		}
	}
}
