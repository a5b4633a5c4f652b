package snapshot

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"securepki/internal/x509lite"
)

// validV3 returns encoded v3 bytes for a small multi-shard corpus with all
// five index sections populated.
func validV3(tb testing.TB) []byte {
	c := testCorpus(tb, 20, 4, 30)
	return encodeV3(tb, c, Options{CertsPerShard: 8, ScansPerShard: 2, ASOf: testASOf})
}

// patchV3Header applies modify to the fixed header, shard table and index
// table, then recomputes the header checksum so corruption tests reach the
// field checks behind it.
func patchV3Header(tb testing.TB, snap []byte, modify func(fixed, table, itable []byte)) []byte {
	tb.Helper()
	out := append([]byte(nil), snap...)
	fixed := out[:headerFixedV3]
	certShards := binary.LittleEndian.Uint32(fixed[32:])
	scanShards := binary.LittleEndian.Uint32(fixed[36:])
	tableLen := int(certShards+scanShards) * tableEntry
	table := out[headerFixedV3 : headerFixedV3+tableLen]
	itable := out[headerFixedV3+tableLen : headerFixedV3+tableLen+V3SectionCount*idxTableEntry]
	modify(fixed, table, itable)
	sum := sha256.New()
	sum.Write(fixed)
	sum.Write(table)
	sum.Write(itable)
	copy(out[headerFixedV3+tableLen+len(itable):], sum.Sum(nil))
	return out
}

// patchV3Section mutates one index section's bytes in place, then recomputes
// the section checksum and the header checksum so only the structural (or
// rebuild-compare) validation can reject the result — the shape a random
// bit-flip can never produce.
func patchV3Section(tb testing.TB, snap []byte, sec int, modify func(keys, post []byte)) []byte {
	tb.Helper()
	lay, err := ReadV3Layout(bytes.NewReader(snap), int64(len(snap)))
	if err != nil {
		tb.Fatal(err)
	}
	out := append([]byte(nil), snap...)
	s := lay.Sections[sec]
	keys := out[s.KeysOff : s.KeysOff+s.KeysLen()]
	post := out[s.PostOff : s.PostOff+int64(s.PostLen)]
	modify(keys, post)
	sum := sha256SectionSum(keys, post)
	nShards := int(lay.CertShards + lay.ScanShards)
	itableOff := headerFixedV3 + nShards*tableEntry
	copy(out[itableOff+sec*idxTableEntry+32:], sum[:])
	head := sha256.New()
	head.Write(out[:itableOff+V3SectionCount*idxTableEntry])
	copy(out[itableOff+V3SectionCount*idxTableEntry:], head.Sum(nil))
	return out
}

// checkReadRejects fails unless Read, serial and parallel, rejects input
// with an error mentioning wantSub ("" for any error).
func checkReadRejects(t *testing.T, input []byte, wantSub string) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		_, err := Read(bytes.NewReader(input), int64(len(input)), Options{Workers: workers})
		if err == nil {
			t.Fatalf("corrupt input accepted (workers=%d)", workers)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("error %q does not mention %q", err, wantSub)
		}
	}
}

// Every corrupted container — magic, fixed header, shard table, shard
// payloads — must produce an explicit error: no panic, no unbounded
// allocation, never a silently wrong corpus. Files of the retired formats (a
// v2 magic, v1's gzip stream) are bad magic like any other. Shard payloads
// are checked by the random-access path only when it inflates them, so
// these cases hold the whole-corpus reader alone.
func TestReadCorrupt(t *testing.T) {
	snap := validV3(t)
	lay, err := ReadV3Layout(bytes.NewReader(snap), int64(len(snap)))
	if err != nil {
		t.Fatal(err)
	}
	var gzBuf bytes.Buffer
	zw := gzip.NewWriter(&gzBuf)
	zw.Write(snap)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	gz := gzBuf.Bytes()
	tableLen := len(lay.Shards) * tableEntry
	last := lay.Shards[len(lay.Shards)-1]

	cases := []struct {
		name    string
		input   []byte
		wantSub string // substring the error must mention, "" for any error
	}{
		{"empty", nil, "truncated header"},
		{"one byte", []byte{0x53}, "truncated header"},
		{"garbage", []byte("certainly not a snapshot of anything"), "bad magic"},
		{"bad magic", append([]byte("SPKISNP9"), snap[8:]...), "bad magic"},
		{"v2 magic", append([]byte("SPKISNP2"), snap[8:]...), "bad magic"},
		{"v1 gzip file", gz, "bad magic"},
		{"v1 truncated gzip", gz[:len(gz)-20], "bad magic"},
		{"v1 header only", gz[:10], "bad magic"}, // the gzip member header alone
		{"v1 garbage body", append(append([]byte(nil), gz[:10]...), []byte("not gob at all")...), "bad magic"},
		{"truncated fixed header", snap[:20], "truncated header"},
		{"truncated shard table", snap[:headerFixedV3+10], "truncated shard table"},
		{"truncated header checksum", snap[:headerFixedV3+tableLen+V3SectionCount*idxTableEntry+3], "truncated header checksum"},
		{"truncated payload", snap[:last.Off+int64(last.CompLen)-15], "truncated"}, // inside the last scan shard
		{"trailing garbage", append(append([]byte(nil), snap...), 0xde, 0xad), "trailing bytes"},
		{"flipped table bit", flipByte(snap, headerFixedV3+8), "header checksum mismatch"},
		{"flipped payload bit", flipByte(snap, int(lay.Shards[0].Off)+10), "checksum mismatch"},
		{
			"absurd cert count",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint64(fixed[8:], 1<<40)
			}),
			"absurd counts",
		},
		{
			"absurd shard count",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint32(fixed[32:], 1<<20)
			}),
			"exceed cap",
		},
		{
			"cert count without shards",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint32(fixed[32:], 0)
			}),
			"shard/count mismatch",
		},
		{
			"absurd shard raw length",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint64(table[16:], maxShardRaw+1)
			}),
			"raw bytes, cap",
		},
		{
			"gzip bomb ratio",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint64(table[16:], maxShardRaw)
			}),
			"ratio cap",
		},
		{
			"non-contiguous shards",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint64(table[tableEntry:], 9) // second shard's first
			}),
			"starts at",
		},
		{
			"shards overrun count",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint64(table[8:], 9999) // first shard's count
			}),
			"overrun",
		},
		{
			"lying raw length",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				n := binary.LittleEndian.Uint64(table[16:])
				binary.LittleEndian.PutUint64(table[16:], n-1)
			}),
			"longer than advertised",
		},
		{
			"observation count mismatch",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				n := binary.LittleEndian.Uint64(fixed[24:])
				binary.LittleEndian.PutUint64(fixed[24:], n+1)
			}),
			"observations",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkReadRejects(t, tc.input, tc.wantSub) })
	}
}

// Every corrupted index input must produce an explicit error — no panic, no
// out-of-bounds section read, never a silently wrong corpus. The same bytes
// are pushed through both the whole-corpus reader (Read) and the
// random-access layout parser (ReadV3Layout + ValidateSection) that
// internal/querystore uses, since a hostile file reaches both.
func TestReadCorruptV3(t *testing.T) {
	snap := validV3(t)
	lay, err := ReadV3Layout(bytes.NewReader(snap), int64(len(snap)))
	if err != nil {
		t.Fatal(err)
	}
	nShards := int(lay.CertShards + lay.ScanShards)
	tableLen := nShards * tableEntry

	cases := []struct {
		name    string
		input   []byte
		wantSub string // substring the error must mention, "" for any error
	}{
		{"truncated fixed header", snap[:30], "truncated header"},
		{"truncated index table", snap[:headerFixedV3+tableLen+10], "truncated index table"},
		{"truncated header checksum", snap[:headerFixedV3+tableLen+V3SectionCount*idxTableEntry+5], "truncated header checksum"},
		{"truncated last section", snap[:len(snap)-10], "truncated"},
		{"truncated at payloads", snap[:int(lay.Shards[0].Off)+8], "truncated"},
		{"trailing garbage", append(append([]byte(nil), snap...), 0xff), "trailing bytes"},
		{"flipped header bit", flipByte(snap, headerFixedV3+tableLen+4), "header checksum mismatch"},
		{"flipped section byte", flipByte(snap, int(lay.Sections[0].KeysOff)+2), "checksum mismatch"},
		{"non-zero padding", nonZeroPad(t, snap, lay), "padding"},
		{
			"wrong section count",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint32(fixed[40:], 4)
			}),
			"index sections",
		},
		{
			"reserved header field",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint32(fixed[44:], 7)
			}),
			"reserved",
		},
		{
			"fingerprint key count mismatch",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint64(itable[8:], lay.CertCount+1)
			}),
			"fingerprint index",
		},
		{
			"wrong section kind",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint32(itable[0:], uint32(V3KindSPKI))
			}),
			"kind",
		},
		{
			"absurd posting length",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint64(itable[idxTableEntry+16:], maxIndexBytes+8)
			}),
			"cap",
		},
		{
			"unsorted fingerprint keys",
			patchV3Section(t, snap, 0, func(keys, post []byte) {
				tmp := make([]byte, V3FPEntry)
				copy(tmp, keys[:V3FPEntry])
				copy(keys[:V3FPEntry], keys[V3FPEntry:2*V3FPEntry])
				copy(keys[V3FPEntry:2*V3FPEntry], tmp)
			}),
			"unsorted",
		},
		{
			"DER offset outside shard",
			patchV3Section(t, snap, 0, func(keys, post []byte) {
				binary.LittleEndian.PutUint32(keys[36:], 1<<29) // first key's derOff
			}),
			"outside shard",
		},
		{
			"fingerprint entry reserved field",
			patchV3Section(t, snap, 0, func(keys, post []byte) {
				keys[44] = 1
			}),
			"reserved",
		},
		{
			"overlapping SPKI posting groups",
			patchV3Section(t, snap, 1, func(keys, post []byte) {
				// Second key re-reads the first group: offsets must tile.
				binary.LittleEndian.PutUint32(keys[V3SPKIEntry+32:], 0)
			}),
			"postings start at",
		},
		{
			"IP posting ref out of range",
			patchV3Section(t, snap, 2, func(keys, post []byte) {
				binary.LittleEndian.PutUint32(post[4:], uint32(lay.CertCount)+5)
			}),
			"references cert",
		},
		{
			"scan metadata absurd nanoseconds",
			patchV3Section(t, snap, 4, func(keys, post []byte) {
				binary.LittleEndian.PutUint32(keys[4:], 2_000_000_000)
			}),
			"nanoseconds",
		},
		{
			"scan metadata observation total",
			patchV3Section(t, snap, 4, func(keys, post []byte) {
				n := binary.LittleEndian.Uint32(keys[16:])
				binary.LittleEndian.PutUint32(keys[16:], n+1)
			}),
			"observations",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkReadRejects(t, tc.input, tc.wantSub)
			// The random-access path must reject the same bytes at open.
			if err := validateV3Random(tc.input); err == nil {
				t.Fatal("corrupt input accepted by random-access validation")
			}
		})
	}
}

// validateV3Random mimics internal/querystore's open path: parse the layout,
// slice each section, validate structurally.
func validateV3Random(snap []byte) error {
	lay, err := ReadV3Layout(bytes.NewReader(snap), int64(len(snap)))
	if err != nil {
		return err
	}
	for i, s := range lay.Sections {
		if s.KeysOff+s.KeysLen() > int64(len(snap)) || s.PostOff+int64(s.PostLen) > int64(len(snap)) {
			return fmt.Errorf("section %d extends past the file", i)
		}
		keys := snap[s.KeysOff : s.KeysOff+s.KeysLen()]
		post := snap[s.PostOff : s.PostOff+int64(s.PostLen)]
		if err := lay.ValidateSection(i, keys, post); err != nil {
			return err
		}
	}
	return nil
}

// A structurally valid file whose indexes lie about the payloads must be
// rejected by the whole-corpus reader's rebuild-compare — the corruption class
// checksums cannot catch because the forger recomputed them.
func TestReadV3IndexDisagreesWithPayloads(t *testing.T) {
	snap := validV3(t)
	// Flip scan 0's operator in the scan-metadata section: structurally
	// valid (0 and 1 are both real operators), checksummed, but wrong.
	forged := patchV3Section(t, snap, 4, func(keys, post []byte) {
		op := binary.LittleEndian.Uint32(keys[0:])
		binary.LittleEndian.PutUint32(keys[0:], 1-op)
	})
	if err := validateV3Random(forged); err != nil {
		t.Fatalf("forged section should pass structural validation, got: %v", err)
	}
	_, err := Read(bytes.NewReader(forged), int64(len(forged)), Options{})
	if err == nil {
		t.Fatal("index/payload disagreement accepted")
	}
	if !strings.Contains(err.Error(), "does not match the decoded corpus") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// nonZeroPad flips a padding byte between the shard payloads and the first
// index section (the corpus geometry guarantees at least one pad byte is not
// present in every build, so find one; skip-free fallback corrupts the gap
// after a section instead).
func nonZeroPad(tb testing.TB, snap []byte, lay *V3Layout) []byte {
	tb.Helper()
	last := lay.Shards[len(lay.Shards)-1]
	end := last.Off + int64(last.CompLen)
	if pad8(end) == 0 {
		// Fall back to the pad after the fingerprint section's keys+post.
		s := lay.Sections[0]
		end = s.PostOff + int64(s.PostLen)
		if pad8(end) == 0 {
			tb.Skip("no padding bytes in this geometry")
		}
	}
	out := append([]byte(nil), snap...)
	out[end] = 0xcc
	return out
}

// VerifyDigests must catch a digest column that disagrees with the DER — a
// forgery the shard checksum alone would bless if an attacker rewrote both.
func TestVerifyDigestsCatchesForgedColumn(t *testing.T) {
	c := testCorpus(t, 5, 1, 4)
	var ders [][]byte
	var fps []x509lite.Fingerprint
	for _, rec := range c.Certs() {
		ders = append(ders, rec.Cert.Raw)
		fps = append(fps, rec.Cert.Fingerprint())
	}
	var shard bytes.Buffer
	if err := writeCertShard(&shard, appendLenCol(nil, ders), ders, fps); err != nil {
		t.Fatal(err)
	}
	raw := shard.Bytes()
	raw[len(raw)-1] ^= 0xff // last digest byte
	if _, err := decodeCertShard(raw, 5, true, 1); err == nil {
		t.Fatal("forged digest column accepted with VerifyDigests")
	} else if !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Without verification the forged digest is adopted (attestation model).
	certs, err := decodeCertShard(raw, 5, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if certs[4].Fingerprint() == c.Cert(4).Cert.Fingerprint() {
		t.Fatal("expected adopted forged digest to differ")
	}
	// Two forged digests parsed across 4 workers: the error names the
	// lower index, whichever worker reaches its certificate first.
	raw[len(raw)-1-3*32] ^= 0xff // cert 1's last digest byte
	for range 20 {
		if _, err := decodeCertShard(raw, 5, true, 4); err == nil || !strings.Contains(err.Error(), "cert 1 digest mismatch") {
			t.Fatalf("two forged digests at 4 workers: err = %v, want cert 1's", err)
		}
	}
}

// A crafted scan shard whose per-scan observation counts wrap uint64 (5 and
// 2^64-5 sum to 0, sliding under a naive total-observations cap) must be
// rejected with an error before the counts reach make(), not panic the
// decode worker with "makeslice: len out of range".
func TestScanShardObsCountOverflow(t *testing.T) {
	var raw []byte
	for _, nObs := range []uint64{5, math.MaxUint64 - 4} {
		raw = binary.AppendUvarint(raw, 0) // operator
		raw = binary.AppendVarint(raw, 0)  // time delta
		raw = binary.AppendUvarint(raw, 0) // nanoseconds
		raw = binary.AppendUvarint(raw, nObs)
	}
	if _, err := decodeScanShard(raw, 2, 10); err == nil {
		t.Fatal("overflowing observation counts accepted")
	} else if !strings.Contains(err.Error(), "observations") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// forgeObsOverflow rewrites the last scan shard of a valid snapshot into one
// whose per-scan observation counts wrap the uint64 running total back to
// zero, re-lays the padding and index sections behind it, and recomputes the
// shard and header checksums, so every integrity check passes and only the
// scan-shard decoder itself can reject it — the shape a random bit-flip can
// never produce.
func forgeObsOverflow(tb testing.TB, snap []byte) []byte {
	tb.Helper()
	lay, err := ReadV3Layout(bytes.NewReader(snap), int64(len(snap)))
	if err != nil {
		tb.Fatal(err)
	}
	// The last shard is always a scan shard.
	last := len(lay.Shards) - 1
	count := int(lay.Shards[last].Count)
	var raw []byte
	for i := 0; i < count; i++ {
		raw = binary.AppendUvarint(raw, 0) // operator
		raw = binary.AppendVarint(raw, 0)  // time delta
		raw = binary.AppendUvarint(raw, 0) // nanoseconds
		n := uint64(5)
		if i == count-1 {
			n = -uint64(5 * (count - 1)) // wraps the running total to zero
			if count == 1 {
				n = math.MaxUint64 // single-scan shard: one absurd claim
			}
		}
		raw = binary.AppendUvarint(raw, n)
	}
	zw, err := gzip.NewWriterLevel(nil, shardCompression)
	if err != nil {
		tb.Fatal(err)
	}
	blocks, err := gzipShard(zw, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	comp := bytes.Join(blocks, nil)
	out := append([]byte(nil), snap[:lay.Shards[last].Off]...)
	out = append(out, comp...)
	out = append(out, make([]byte, pad8(int64(len(out))))...)
	for _, sec := range lay.Sections { // keys ‖ postings, then padding
		out = append(out, snap[sec.KeysOff:sec.PostOff+int64(sec.PostLen)]...)
		out = append(out, make([]byte, pad8(int64(len(out))))...)
	}
	entry := headerFixedV3 + last*tableEntry
	binary.LittleEndian.PutUint64(out[entry+16:], uint64(len(raw)))
	binary.LittleEndian.PutUint64(out[entry+24:], uint64(len(comp)))
	sum := sha256.Sum256(comp)
	copy(out[entry+32:], sum[:])
	headLen := headerFixedV3 + len(lay.Shards)*tableEntry + V3SectionCount*idxTableEntry
	head := sha256.Sum256(out[:headLen])
	copy(out[headLen:], head[:])
	return out
}

// The overflow shape must surface as an explicit Read error — not a decode
// worker panic — when carried by a fully checksummed file.
func TestReadObsCountOverflowFile(t *testing.T) {
	forged := forgeObsOverflow(t, validV3(t))
	if err := validateV3Random(forged); err != nil {
		t.Fatalf("forged file should pass every header and section check, got: %v", err)
	}
	checkReadRejects(t, forged, "observations")
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}
