package snapshot

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/scanstore"
	"securepki/internal/x509lite"
)

// testASOf is the deterministic AS view the v3 tests write with: /8 prefixes
// map straight to AS numbers, and one prefix is deliberately unrouted so the
// not-found branch is exercised.
func testASOf(ip netsim.IP, _ time.Time) (int, bool) {
	if uint32(ip)>>24 == 10 {
		return 64512 + int(uint32(ip)>>16&0xff)%7, true
	}
	if uint32(ip)>>24 == 192 {
		return 0, false // unrouted
	}
	return 65000, true
}

func encodeV3(tb testing.TB, c *scanstore.Corpus, opt Options) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteV3(&buf, c, opt); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestV3RoundTrip(t *testing.T) {
	c := testCorpus(t, 150, 11, 400)
	raw := encodeV3(t, c, Options{CertsPerShard: 64, ScansPerShard: 3, ASOf: testASOf})
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

func TestV3RoundTripEmpty(t *testing.T) {
	raw := encodeV3(t, scanstore.NewCorpus(), Options{})
	got, err := Read(bytes.NewReader(raw), int64(len(raw)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCerts() != 0 || got.NumScans() != 0 {
		t.Fatalf("want empty corpus, got %d certs, %d scans", got.NumCerts(), got.NumScans())
	}
}

// Scans with no observations — first and last — and certificates never
// observed must survive.
func TestV3RoundTripSparse(t *testing.T) {
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
	raw := encodeV3(t, c, Options{ASOf: testASOf})
	got, err := Read(bytes.NewReader(raw), int64(len(raw)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	corpusEqual(t, c, got)
}

// The acceptance bar: v3 bytes are identical at workers 1, 4 and 16, with
// and without an AS view.
func TestV3WriteDeterministicAcrossWorkers(t *testing.T) {
	c := testCorpus(t, 90, 7, 120)
	for _, asof := range []struct {
		name string
		fn   func(netsim.IP, time.Time) (int, bool)
	}{{"no-as", nil}, {"as", testASOf}} {
		t.Run(asof.name, func(t *testing.T) {
			var ref []byte
			for _, workers := range []int{1, 4, 16} {
				raw := encodeV3(t, c, Options{Workers: workers, CertsPerShard: 32, ScansPerShard: 2, ASOf: asof.fn})
				if ref == nil {
					ref = raw
					continue
				}
				if !bytes.Equal(ref, raw) {
					t.Fatalf("Workers=%d produced different bytes than Workers=1", workers)
				}
			}
		})
	}
}

// v3Sections reads and validates every index section of an encoded v3 file,
// returning the layout and the per-section (keys, postings) bytes.
func v3Sections(tb testing.TB, raw []byte) (*V3Layout, [V3SectionCount][2][]byte) {
	tb.Helper()
	lay, err := ReadV3Layout(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		tb.Fatal(err)
	}
	var out [V3SectionCount][2][]byte
	for i, sec := range lay.Sections {
		keys := raw[sec.KeysOff : sec.KeysOff+sec.KeysLen()]
		post := raw[sec.PostOff : sec.PostOff+int64(sec.PostLen)]
		if err := lay.ValidateSection(i, keys, post); err != nil {
			tb.Fatal(err)
		}
		out[i] = [2][]byte{keys, post}
	}
	return lay, out
}

// The golden test for the indexes: every answer the index sections encode
// must byte-match a brute-force scan over the corpus itself, for both serial
// and parallel index builds.
func TestV3IndexesMatchBruteForce(t *testing.T) {
	c := testCorpus(t, 120, 9, 300)
	for _, workers := range []int{1, 8} {
		raw := encodeV3(t, c, Options{Workers: workers, CertsPerShard: 50, ScansPerShard: 2, ASOf: testASOf})
		lay, secs := v3Sections(t, raw)

		// Fingerprint section: sorted fingerprints, and each (shard, off, len)
		// must slice the exact DER out of the decompressed shard payload.
		fpKeys := secs[0][0]
		n := int(lay.Sections[0].KeyCount)
		if n != c.NumCerts() {
			t.Fatalf("fp index has %d keys for %d certs", n, c.NumCerts())
		}
		shardRaws := make([][]byte, lay.CertShards)
		for i := range shardRaws {
			sh := lay.Shards[i]
			rawShard, err := sh.Inflate(raw[sh.Off : sh.Off+int64(sh.CompLen)])
			if err != nil {
				t.Fatal(err)
			}
			shardRaws[i] = rawShard
		}
		refToID := make([]scanstore.CertID, n) // certref → corpus CertID
		for k := 0; k < n; k++ {
			e := fpKeys[k*V3FPEntry:]
			var fp x509lite.Fingerprint
			copy(fp[:], e[:32])
			id, ok := c.Lookup(fp)
			if !ok {
				t.Fatalf("fp index key %d not in corpus", k)
			}
			refToID[k] = id
			shard := binary.LittleEndian.Uint32(e[32:])
			off := binary.LittleEndian.Uint32(e[36:])
			dlen := binary.LittleEndian.Uint32(e[40:])
			der := shardRaws[shard][off : off+dlen]
			if !bytes.Equal(der, c.Cert(id).Cert.Raw) {
				t.Fatalf("fp index key %d DER does not match cert %d", k, id)
			}
		}

		// SPKI section vs brute force over the cert table.
		wantSPKI := map[x509lite.Fingerprint][]uint32{}
		idToRef := make(map[scanstore.CertID]uint32, n)
		for ref, id := range refToID {
			idToRef[id] = uint32(ref)
		}
		for _, rec := range c.Certs() {
			k := rec.Cert.PublicKeyFingerprint()
			wantSPKI[k] = append(wantSPKI[k], idToRef[rec.ID])
		}
		spkiKeys, spkiPost := secs[1][0], secs[1][1]
		nk := int(lay.Sections[1].KeyCount)
		seen := 0
		for k := 0; k < nk; k++ {
			e := spkiKeys[k*V3SPKIEntry:]
			var spki x509lite.Fingerprint
			copy(spki[:], e[:32])
			off := binary.LittleEndian.Uint32(e[32:])
			cnt := binary.LittleEndian.Uint32(e[36:])
			want := append([]uint32(nil), wantSPKI[spki]...)
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if int(cnt) != len(want) {
				t.Fatalf("spki key %d has %d refs, brute force %d", k, cnt, len(want))
			}
			for j := uint32(0); j < cnt; j++ {
				if got := binary.LittleEndian.Uint32(spkiPost[(off+j)*4:]); got != want[j] {
					t.Fatalf("spki key %d ref %d: index %d, brute force %d", k, j, got, want[j])
				}
			}
			seen += int(cnt)
		}
		if seen != n {
			t.Fatalf("spki postings cover %d of %d certs", seen, n)
		}

		// IP section vs brute force over all observations.
		type sighting struct{ scan, ref uint32 }
		wantIP := map[uint32][]sighting{}
		for _, s := range c.Scans() {
			for _, o := range s.Obs {
				wantIP[uint32(o.IP)] = append(wantIP[uint32(o.IP)], sighting{uint32(s.ID), idToRef[o.Cert]})
			}
		}
		for ip := range wantIP {
			lst := wantIP[ip]
			sort.Slice(lst, func(a, b int) bool {
				if lst[a].scan != lst[b].scan {
					return lst[a].scan < lst[b].scan
				}
				return lst[a].ref < lst[b].ref
			})
			dedup := lst[:0]
			for i, sg := range lst {
				if i == 0 || sg != lst[i-1] {
					dedup = append(dedup, sg)
				}
			}
			wantIP[ip] = dedup
		}
		ipKeys, ipPost := secs[2][0], secs[2][1]
		nip := int(lay.Sections[2].KeyCount)
		if nip != len(wantIP) {
			t.Fatalf("ip index has %d keys, brute force %d", nip, len(wantIP))
		}
		for k := 0; k < nip; k++ {
			e := ipKeys[k*V3IPEntry:]
			ip := binary.LittleEndian.Uint32(e[0:])
			off := binary.LittleEndian.Uint32(e[4:])
			cnt := binary.LittleEndian.Uint32(e[8:])
			want := wantIP[ip]
			if int(cnt) != len(want) {
				t.Fatalf("ip %d has %d sightings, brute force %d", ip, cnt, len(want))
			}
			for j := uint32(0); j < cnt; j++ {
				scan := binary.LittleEndian.Uint32(ipPost[(off+j)*8:])
				ref := binary.LittleEndian.Uint32(ipPost[(off+j)*8+4:])
				if scan != want[j].scan || ref != want[j].ref {
					t.Fatalf("ip %d sighting %d: index (%d,%d), brute force (%d,%d)",
						ip, j, scan, ref, want[j].scan, want[j].ref)
				}
			}
		}

		// AS section vs brute force through the same ASOf.
		wantAS := map[uint32][]uint32{}
		for _, s := range c.Scans() {
			for _, o := range s.Obs {
				if asn, ok := testASOf(o.IP, s.Time); ok {
					wantAS[uint32(asn)] = append(wantAS[uint32(asn)], idToRef[o.Cert])
				}
			}
		}
		for asn := range wantAS {
			lst := wantAS[asn]
			sort.Slice(lst, func(a, b int) bool { return lst[a] < lst[b] })
			dedup := lst[:0]
			for i, r := range lst {
				if i == 0 || r != lst[i-1] {
					dedup = append(dedup, r)
				}
			}
			wantAS[asn] = dedup
		}
		asKeys, asPost := secs[3][0], secs[3][1]
		nas := int(lay.Sections[3].KeyCount)
		if nas != len(wantAS) {
			t.Fatalf("as index has %d keys, brute force %d", nas, len(wantAS))
		}
		for k := 0; k < nas; k++ {
			e := asKeys[k*V3ASEntry:]
			asn := binary.LittleEndian.Uint32(e[0:])
			off := binary.LittleEndian.Uint32(e[4:])
			cnt := binary.LittleEndian.Uint32(e[8:])
			want := wantAS[asn]
			if int(cnt) != len(want) {
				t.Fatalf("as %d has %d refs, brute force %d", asn, cnt, len(want))
			}
			for j := uint32(0); j < cnt; j++ {
				if got := binary.LittleEndian.Uint32(asPost[(off+j)*4:]); got != want[j] {
					t.Fatalf("as %d ref %d: index %d, brute force %d", asn, j, got, want[j])
				}
			}
		}

		// Scan metadata vs the corpus scans.
		metaKeys := secs[4][0]
		for i, s := range c.Scans() {
			m := ScanMetaAt(metaKeys, i)
			if m.Operator != uint32(s.Operator) || !m.Time.Equal(s.Time) || int(m.ObsCount) != len(s.Obs) {
				t.Fatalf("scan %d metadata %+v does not match corpus scan", i, m)
			}
		}
	}
}

// A loaded corpus must answer Lookup for every fingerprint exactly as the
// corpus it was written from does (plus a miss), at serial and parallel
// decode — the pin for Corpus.Lookup on the load path.
func TestLookupAgreesAcrossFormats(t *testing.T) {
	c := testCorpus(t, 80, 6, 150)
	raw := encodeV3(t, c, Options{CertsPerShard: 33, ASOf: testASOf})
	for _, workers := range []int{1, 4} {
		got, err := Read(bytes.NewReader(raw), int64(len(raw)), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, rec := range c.Certs() {
			fp := rec.Cert.Fingerprint()
			id, ok := got.Lookup(fp)
			if !ok || id != rec.ID {
				t.Fatalf("workers=%d: Lookup(%s) = (%d, %v), want (%d, true)", workers, fp, id, ok, rec.ID)
			}
		}
		if _, ok := got.Lookup(x509lite.FingerprintBytes([]byte("never interned"))); ok {
			t.Fatalf("workers=%d: Lookup of absent fingerprint succeeded", workers)
		}
	}
}
