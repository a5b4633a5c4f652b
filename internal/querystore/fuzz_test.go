package querystore

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"securepki/internal/scanstore"
	"securepki/internal/snapshot"
)

// Byte sizes of a v3 header's parts (see the snapshot package doc): the
// fixed header, one shard-table entry and one index-table entry.
const (
	fixedHeaderLen = 48
	shardEntryLen  = 64
	indexEntryLen  = 64
)

// encodeSnapshot writes c as a v3 snapshot.
func encodeSnapshot(tb testing.TB, c *scanstore.Corpus, opt snapshot.Options) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := snapshot.WriteV3(&buf, c, opt); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// layoutOf parses a valid snapshot's layout.
func layoutOf(tb testing.TB, snap []byte) *snapshot.V3Layout {
	tb.Helper()
	lay, err := snapshot.ReadV3Layout(bytes.NewReader(snap), int64(len(snap)))
	if err != nil {
		tb.Fatal(err)
	}
	return lay
}

// patchHeader applies modify to a copy of the fixed header, shard table and
// index table, then recomputes the header checksum, so the result reaches
// the field checks behind it.
func patchHeader(tb testing.TB, snap []byte, modify func(fixed, table, itable []byte)) []byte {
	tb.Helper()
	out := bytes.Clone(snap)
	tableEnd := fixedHeaderLen + len(layoutOf(tb, snap).Shards)*shardEntryLen
	headEnd := tableEnd + snapshot.V3SectionCount*indexEntryLen
	modify(out[:fixedHeaderLen], out[fixedHeaderLen:tableEnd], out[tableEnd:headEnd])
	sum := sha256.Sum256(out[:headEnd])
	copy(out[headEnd:], sum[:])
	return out
}

// patchSection applies modify to a copy of one index section's keys and
// postings, then recomputes the section and header checksums, so only the
// structural checks, or Read's rebuild from the payloads, can reject it.
func patchSection(tb testing.TB, snap []byte, i int, modify func(keys, post []byte)) []byte {
	tb.Helper()
	sec := layoutOf(tb, snap).Sections[i]
	out := bytes.Clone(snap)
	keys := out[sec.KeysOff : sec.KeysOff+sec.KeysLen()]
	post := out[sec.PostOff : sec.PostOff+int64(sec.PostLen)]
	modify(keys, post)
	h := sha256.New()
	h.Write(keys)
	h.Write(post)
	return patchHeader(tb, out, func(_, _, itable []byte) {
		copy(itable[i*indexEntryLen+32:], h.Sum(nil))
	})
}

func flipAt(b []byte, i int) []byte {
	out := bytes.Clone(b)
	out[i] ^= 0xff
	return out
}

// FuzzOpen throws arbitrary bytes at the random-access reader. The
// invariants: OpenReaderAt never panics; on a store it opens, a lookup of
// every fingerprint key returns without panicking, whatever its shard
// holds; and the two readers judge a file alike, so whatever snapshot.Read
// accepts OpenReaderAt accepts too, and ByFingerprint returns each loaded
// certificate's DER. The seeds are valid snapshots, with and without an AS
// view, and the corruption shapes FuzzReadSnapshot seeds the whole-corpus
// reader with; CI replays them with -fuzztime=0.
func FuzzOpen(f *testing.F) {
	c := testCorpus(f, 12, 3, 20)
	v3 := encodeSnapshot(f, c, snapshot.Options{CertsPerShard: 5, ScansPerShard: 2, ASOf: testASOf})
	lay := layoutOf(f, v3)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(v3)
	if err := zw.Close(); err != nil {
		f.Fatal(err)
	}

	f.Add(v3)
	f.Add(encodeSnapshot(f, c, snapshot.Options{CertsPerShard: 5, ScansPerShard: 2})) // empty AS section
	f.Add(encodeSnapshot(f, scanstore.NewCorpus(), snapshot.Options{}))
	f.Add(v3[:len(v3)/2])
	f.Add(v3[:len(v3)-30]) // cuts into the index sections
	f.Add(flipAt(v3, len(v3)-5))
	f.Add(flipAt(v3, fixedHeaderLen+4))
	f.Add(flipAt(v3, int(lay.Shards[0].Off)+10)) // a certificate shard's payload
	f.Add(append(bytes.Clone(v3), 0xff))
	// Non-zero padding: the first pad byte after the payloads or a section.
	last := lay.Shards[len(lay.Shards)-1]
	ends := []int64{last.Off + int64(last.CompLen)}
	for _, sec := range lay.Sections {
		ends = append(ends, sec.PostOff+int64(sec.PostLen))
	}
	for _, end := range ends {
		if end%8 != 0 {
			f.Add(flipAt(v3, int(end)))
			break
		}
	}
	// A forged v3: structurally valid indexes that disagree with the
	// payloads (scan 0's operator flipped, checksums recomputed).
	f.Add(patchSection(f, v3, 4, func(keys, post []byte) { keys[0] ^= 1 }))
	// A DER offset outside its shard, behind recomputed checksums.
	f.Add(patchSection(f, v3, 0, func(keys, post []byte) { binary.LittleEndian.PutUint32(keys[36:], 1<<29) }))
	// Header fields that lie behind a recomputed header checksum.
	f.Add(patchHeader(f, v3, func(fixed, table, itable []byte) {
		binary.LittleEndian.PutUint64(fixed[8:], 1<<40)
	}))
	f.Add(patchHeader(f, v3, func(fixed, table, itable []byte) {
		binary.LittleEndian.PutUint64(table[16:], binary.LittleEndian.Uint64(table[16:])-1)
	}))
	f.Add(patchHeader(f, v3, func(fixed, table, itable []byte) {
		binary.LittleEndian.PutUint64(fixed[24:], binary.LittleEndian.Uint64(fixed[24:])+1)
	}))
	// Retired formats: a v2 magic and v1's gzip container.
	f.Add(append([]byte("SPKISNP2"), v3[8:]...))
	f.Add(gz.Bytes())
	f.Add([]byte("SPKISNP3 but then nonsense"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		corpus, rerr := snapshot.Read(bytes.NewReader(data), int64(len(data)), snapshot.Options{Workers: 2})
		st, err := OpenReaderAt(bytes.NewReader(data), int64(len(data)), Options{CacheShards: 2})
		if err != nil {
			if rerr == nil {
				t.Fatalf("snapshot.Read accepts what OpenReaderAt rejects: %v", err)
			}
			return
		}
		defer st.Close()
		for ref := 0; ref < st.NumCerts(); ref++ {
			st.ByFingerprint(st.FingerprintAt(uint32(ref)))
		}
		if rerr != nil {
			return
		}
		for i := 0; i < corpus.NumCerts(); i++ {
			want := corpus.Cert(scanstore.CertID(i)).Cert
			got, ok, err := st.ByFingerprint(want.Fingerprint())
			if err != nil || !ok || !bytes.Equal(got.Raw, want.Raw) {
				t.Fatalf("certificate %d: ByFingerprint = (ok %v, err %v), or its DER differs from Read's", i, ok, err)
			}
		}
	})
}
