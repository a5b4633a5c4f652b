package querystore

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"securepki/internal/scanstore"
	"securepki/internal/snapshot"
	"securepki/internal/x509lite"
)

// The bench corpus matches internal/snapshot's: observation-heavy, both
// operators, enough certs to spread over many shards.
const (
	qbenchCerts  = 2000
	qbenchScans  = 60
	qbenchObsPer = 2000
)

var qbenchState struct {
	once sync.Once
	c    *scanstore.Corpus
	fps  []x509lite.Fingerprint
	path string
	raw  []byte
}

func qbenchSnapshot(tb testing.TB) (*scanstore.Corpus, []x509lite.Fingerprint, string, []byte) {
	qbenchState.once.Do(func() {
		qbenchState.c = testCorpus(tb, qbenchCerts, qbenchScans, qbenchObsPer)
		qbenchState.fps = make([]x509lite.Fingerprint, qbenchCerts)
		for i := range qbenchState.fps {
			qbenchState.fps[i] = qbenchState.c.Cert(scanstore.CertID(i)).Cert.Fingerprint()
		}
		var buf bytes.Buffer
		if err := snapshot.WriteV3(&buf, qbenchState.c, snapshot.Options{ASOf: testASOf}); err != nil {
			tb.Fatal(err)
		}
		qbenchState.raw = buf.Bytes()
		dir, err := os.MkdirTemp("", "querystore-bench")
		if err != nil {
			tb.Fatal(err)
		}
		qbenchState.path = filepath.Join(dir, "corpus.v3")
		if err := os.WriteFile(qbenchState.path, qbenchState.raw, 0o644); err != nil {
			tb.Fatal(err)
		}
	})
	return qbenchState.c, qbenchState.fps, qbenchState.path, qbenchState.raw
}

func reportQPS(b *testing.B) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "queries/sec")
	}
}

// BenchmarkQueryLookup is the headline read-path comparison: a v3 point
// lookup (cold map, hot cache, hot parallel) against the bulk read path —
// decode the whole snapshot, then Corpus.Lookup. The acceptance
// bar is point lookup ≥100× faster than the full decode.
func BenchmarkQueryLookup(b *testing.B) {
	_, fps, path, raw := qbenchSnapshot(b)

	b.Run("cold-open", func(b *testing.B) {
		// Open + validate + one certificate fetch + close, per iteration:
		// the worst case (nothing cached, mmap set up fresh).
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := Open(path, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, ok, err := st.ByFingerprint(fps[i%len(fps)]); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
			st.Close()
		}
		reportQPS(b)
	})

	for _, mode := range []struct {
		name string
		open func(b *testing.B) (*Store, error)
	}{
		{"hot", func(*testing.B) (*Store, error) { return Open(path, Options{}) }},
		{"hot-pread", func(b *testing.B) (*Store, error) { return openPread(b, path, Options{}) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			st, err := mode.open(b)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			// Prime the cache: the default 16-shard budget covers the whole
			// bench corpus, so steady state is all-hits.
			for _, fp := range fps {
				if _, _, err := st.ByFingerprint(fp); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := st.ByFingerprint(fps[i%len(fps)]); err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
			reportQPS(b)
		})
	}

	b.Run("hot-parallel", func(b *testing.B) {
		st, err := Open(path, Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		for _, fp := range fps {
			if _, _, err := st.ByFingerprint(fp); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				i++
				if _, ok, err := st.ByFingerprint(fps[i*31%len(fps)]); err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
		reportQPS(b)
	})

	b.Run("full-decode-baseline", func(b *testing.B) {
		// What answering one fingerprint cost before v3: inflate every
		// shard, parse every certificate, then one map lookup.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := snapshot.Read(bytes.NewReader(raw), int64(len(raw)), snapshot.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := c.Lookup(fps[i%len(fps)]); !ok {
				b.Fatal("lookup miss")
			}
		}
		reportQPS(b)
	})
}

// BenchmarkQueryIndexOnly measures the pure index lookups that never touch a
// shard: SPKI, IP and AS postings straight off the map.
func BenchmarkQueryIndexOnly(b *testing.B) {
	c, fps, path, _ := qbenchSnapshot(b)
	st, err := Open(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()

	b.Run("spki", func(b *testing.B) {
		spkis := make([]x509lite.Fingerprint, len(fps))
		for i := range spkis {
			spkis[i] = c.Cert(scanstore.CertID(i)).Cert.PublicKeyFingerprint()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := st.BySPKI(spkis[i%len(spkis)]); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
		reportQPS(b)
	})
	b.Run("ip", func(b *testing.B) {
		scan := c.Scans()[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := scan.Obs[i%len(scan.Obs)]
			if _, ok, err := st.ByIP(o.IP); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
		reportQPS(b)
	})
	b.Run("as", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := st.ByAS(64512 + i%7); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
		reportQPS(b)
	})
}

// BenchmarkQueryNegativeLookup prices misses against hits on the fingerprint
// index: an in-range miss pays the full binary search; an out-of-range miss
// is answered by the persisted range guard from two resident values, without
// touching the key array at all.
func BenchmarkQueryNegativeLookup(b *testing.B) {
	_, fps, path, _ := qbenchSnapshot(b)
	st, err := Open(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()

	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := st.ByFingerprint(fps[i%len(fps)]); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
		reportQPS(b)
	})

	b.Run("miss-in-range", func(b *testing.B) {
		// Deterministic absent fingerprints inside [lo, hi]: hash a counter,
		// keep values that land in range and miss the corpus.
		present := make(map[x509lite.Fingerprint]bool, len(fps))
		for _, fp := range fps {
			present[fp] = true
		}
		var probes []x509lite.Fingerprint
		for i := 0; len(probes) < 512 && i < 1<<16; i++ {
			fp := x509lite.FingerprintBytes([]byte{byte(i), byte(i >> 8), 0xa5})
			if present[fp] || bytes.Compare(fp[:], st.fpLo[:]) < 0 || bytes.Compare(fp[:], st.fpHi[:]) > 0 {
				continue
			}
			probes = append(probes, fp)
		}
		if len(probes) == 0 {
			b.Fatal("no in-range absent probes found")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := st.ByFingerprint(probes[i%len(probes)]); err != nil || ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
		reportQPS(b)
	})

	b.Run("miss-guarded", func(b *testing.B) {
		var maxFP x509lite.Fingerprint
		for i := range maxFP {
			maxFP[i] = 0xff
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := st.ByFingerprint(maxFP); err != nil || ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
		reportQPS(b)
	})
}
