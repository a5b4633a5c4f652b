package snapshot

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/scanstore"
	"securepki/internal/x509lite"
)

// testCorpus builds a deterministic corpus: nCerts distinct self-signed
// certificates and nScans scans of obsPerScan observations each, with
// certificate IDs and IPs spread to exercise the delta coder's positive and
// negative branches.
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
		if got := c.Intern(cert); int(got) != i {
			tb.Fatalf("intern %d returned %d", i, got)
		}
	}
	base := time.Date(2013, 6, 1, 4, 30, 0, 0, time.UTC)
	for s := 0; s < nScans; s++ {
		obs := make([]scanstore.Observation, obsPerScan)
		for j := range obs {
			// Deliberately non-monotonic IDs and IPs: deltas go negative.
			obs[j] = scanstore.Observation{
				Cert: scanstore.CertID((s*131 + j*89) % nCerts),
				IP:   netsim.IP(0x0a000000 + uint32((j*99991+s*7)%(1<<24))),
			}
		}
		op := scanstore.UMich
		if s%3 == 1 {
			op = scanstore.Rapid7
		}
		if _, err := c.AddScan(op, base.AddDate(0, 0, s).Add(time.Duration(s)*time.Minute), obs); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// corpusEqual fails the test unless the two corpora are observably identical:
// same certificates (bytes and digests) in the same order, same scans with
// the same operator, instant and observation list.
func corpusEqual(tb testing.TB, want, got *scanstore.Corpus) {
	tb.Helper()
	if want.NumCerts() != got.NumCerts() {
		tb.Fatalf("cert count: want %d, got %d", want.NumCerts(), got.NumCerts())
	}
	for i := 0; i < want.NumCerts(); i++ {
		w, g := want.Cert(scanstore.CertID(i)), got.Cert(scanstore.CertID(i))
		if !bytes.Equal(w.Cert.Raw, g.Cert.Raw) {
			tb.Fatalf("cert %d DER differs", i)
		}
		if w.Cert.Fingerprint() != g.Cert.Fingerprint() {
			tb.Fatalf("cert %d fingerprint differs", i)
		}
		if w.Cert.PublicKeyFingerprint() != g.Cert.PublicKeyFingerprint() {
			tb.Fatalf("cert %d key fingerprint differs", i)
		}
	}
	if want.NumScans() != got.NumScans() {
		tb.Fatalf("scan count: want %d, got %d", want.NumScans(), got.NumScans())
	}
	for i := 0; i < want.NumScans(); i++ {
		w, g := want.Scan(scanstore.ScanID(i)), got.Scan(scanstore.ScanID(i))
		if w.Operator != g.Operator {
			tb.Fatalf("scan %d operator: want %v, got %v", i, w.Operator, g.Operator)
		}
		if !w.Time.Equal(g.Time) {
			tb.Fatalf("scan %d time: want %v, got %v", i, w.Time, g.Time)
		}
		if len(w.Obs) != len(g.Obs) {
			tb.Fatalf("scan %d observations: want %d, got %d", i, len(w.Obs), len(g.Obs))
		}
		for j := range w.Obs {
			if w.Obs[j] != g.Obs[j] {
				tb.Fatalf("scan %d observation %d: want %+v, got %+v", i, j, w.Obs[j], g.Obs[j])
			}
		}
	}
}

// Pre-epoch scan times exercise the negative absolute-seconds branch.
func TestRoundTripPreEpochTime(t *testing.T) {
	c := testCorpus(t, 3, 0, 0)
	if _, err := c.AddScan(scanstore.UMich, time.Date(1969, 7, 20, 20, 17, 40, 123, time.UTC),
		[]scanstore.Observation{{Cert: 1, IP: 7}}); err != nil {
		t.Fatal(err)
	}
	raw := encodeV3(t, c, Options{ASOf: testASOf})
	got, err := Read(bytes.NewReader(raw), int64(len(raw)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	corpusEqual(t, c, got)
}

// Loaded certificates must have memoized digests: Intern on the loaded corpus
// must not redo SHA-256 work (digest column + ParseWithDigest adoption).
func TestLoadedCertsMemoized(t *testing.T) {
	c := testCorpus(t, 8, 2, 10)
	raw := encodeV3(t, c, Options{})
	got, err := Read(bytes.NewReader(raw), int64(len(raw)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < got.NumCerts(); i++ {
		cert := got.Cert(scanstore.CertID(i)).Cert
		fp := cert.Fingerprint()
		if a := testing.AllocsPerRun(20, func() {
			if cert.Fingerprint() != fp {
				t.Fatal("unstable fingerprint")
			}
		}); a != 0 {
			t.Fatalf("cert %d Fingerprint allocates %.1f — digest not memoized on load", i, a)
		}
	}
}

// spillConfig is a StreamWriter configuration whose budget is small enough
// that the sorters and section arrays take the disk path.
func spillConfig(tb testing.TB) StreamWriterConfig {
	return StreamWriterConfig{SpillDir: tb.TempDir(), MemBudget: 1 << 14}
}

// A corpus written through a spilling StreamWriter, without an AS view,
// loads back unchanged, serial, parallel and with digest verification.
func TestRoundTrip(t *testing.T) {
	// Shard sizes chosen so both kinds of shard have a ragged final shard.
	c := testCorpus(t, 150, 11, 400)
	raw := streamEncode(t, c, Options{CertsPerShard: 64, ScansPerShard: 3}, spillConfig(t))

	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"serial", Options{Workers: 1}},
		{"parallel", Options{Workers: 8}},
		{"verify-digests", Options{Workers: 4, VerifyDigests: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Read(bytes.NewReader(raw), int64(len(raw)), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			corpusEqual(t, c, got)
		})
	}
}

// The degenerate corpora load back: nothing at all, certificates that no
// scan saw, and scans that saw nothing with no certificate interned — each
// leaves one kind of shard, or both, absent from the file.
func TestRoundTripEmpty(t *testing.T) {
	scansOnly := scanstore.NewCorpus()
	base := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	for s := 0; s < 3; s++ {
		if _, err := scansOnly.AddScan(scanstore.Rapid7, base.AddDate(0, 0, s), nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		c    *scanstore.Corpus
	}{
		{"nothing", scanstore.NewCorpus()},
		{"certs only", testCorpus(t, 5, 0, 0)},
		{"empty scans only", scansOnly},
	} {
		raw := encodeV3(t, tc.c, Options{ASOf: testASOf, ScansPerShard: 2})
		for _, workers := range []int{1, 4} {
			got, err := Read(bytes.NewReader(raw), int64(len(raw)), Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", tc.name, workers, err)
			}
			corpusEqual(t, tc.c, got)
		}
	}
}

// Scans with no observations and certificates never observed must survive
// one-certificate, one-scan shards, where whole scan shards carry nothing.
func TestRoundTripSparse(t *testing.T) {
	c := testCorpus(t, 10, 0, 0)
	base := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	if _, err := c.AddScan(scanstore.UMich, base, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddScan(scanstore.Rapid7, base.AddDate(0, 0, 1),
		[]scanstore.Observation{{Cert: 3, IP: 42}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddScan(scanstore.UMich, base.AddDate(0, 0, 2), nil); err != nil {
		t.Fatal(err)
	}
	raw := encodeV3(t, c, Options{CertsPerShard: 1, ScansPerShard: 1})
	for _, workers := range []int{1, 4} {
		got, err := Read(bytes.NewReader(raw), int64(len(raw)), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		corpusEqual(t, c, got)
	}
}

// The file bytes must not depend on the worker count on the spilling
// StreamWriter path either — shard boundaries are fixed by the data,
// workers only pick who compresses what — and must equal the resident
// write's.
func TestWriteDeterministicAcrossWorkers(t *testing.T) {
	c := testCorpus(t, 90, 7, 120)
	ref := encodeV3(t, c, Options{Workers: 1, CertsPerShard: 32, ScansPerShard: 2, ASOf: testASOf})
	for _, workers := range []int{1, 2, 5, 16} {
		raw := streamEncode(t, c, Options{Workers: workers, CertsPerShard: 32, ScansPerShard: 2, ASOf: testASOf}, spillConfig(t))
		if !bytes.Equal(ref, raw) {
			t.Fatalf("spilling Workers=%d produced different bytes than the resident Workers=1 write", workers)
		}
	}
}
