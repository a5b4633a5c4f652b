package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"securepki/internal/x509lite"
)

// validV2 returns encoded bytes for a small multi-shard corpus.
func validV2(tb testing.TB) []byte {
	c := testCorpus(tb, 20, 4, 30)
	return encodeV2(tb, c, Options{CertsPerShard: 8, ScansPerShard: 2})
}

// patchHeader applies modify to the fixed header and shard table, then
// recomputes the header checksum so corruption tests reach the field checks
// behind it.
func patchHeader(tb testing.TB, snap []byte, modify func(fixed, table []byte)) []byte {
	tb.Helper()
	out := append([]byte(nil), snap...)
	fixed := out[:headerFixed]
	certShards := binary.LittleEndian.Uint32(fixed[32:])
	scanShards := binary.LittleEndian.Uint32(fixed[36:])
	tableLen := int(certShards+scanShards) * tableEntry
	table := out[headerFixed : headerFixed+tableLen]
	modify(fixed, table)
	sum := sha256.New()
	sum.Write(fixed)
	sum.Write(table)
	copy(out[headerFixed+tableLen:], sum.Sum(nil))
	return out
}

// Every corrupted input must produce an explicit error — no panic, no
// unbounded allocation, never a silently wrong corpus.
func TestReadCorrupt(t *testing.T) {
	snap := validV2(t)
	v1c := testCorpus(t, 6, 2, 8)
	var v1buf bytes.Buffer
	if err := v1c.Write(&v1buf); err != nil {
		t.Fatal(err)
	}
	v1 := v1buf.Bytes()

	cases := []struct {
		name    string
		input   []byte
		wantSub string // substring the error must mention, "" for any error
	}{
		{"empty", nil, "read magic"},
		{"one byte", []byte{0x53}, "read magic"},
		{"garbage", []byte("certainly not a snapshot of anything"), "bad magic"},
		{"bad magic", append([]byte("SPKISNP9"), snap[8:]...), "bad magic"},
		{"truncated fixed header", snap[:20], "truncated header"},
		{"truncated shard table", snap[:headerFixed+10], "truncated shard table"},
		// The corpus shards as 3 cert shards (8+8+4) and 2 scan shards (2+2),
		// so the header checksum starts at headerFixed + 5 table entries.
		{"truncated header checksum", snap[:headerFixed+5*tableEntry+3], "truncated header checksum"},
		{"truncated payload", snap[:len(snap)-15], "truncated"},
		{"trailing garbage", append(append([]byte(nil), snap...), 0xde, 0xad), "trailing bytes"},
		{"flipped table bit", flipByte(snap, headerFixed+8), "header checksum mismatch"},
		{"flipped payload bit", flipByte(snap, len(snap)-10), "checksum mismatch"},
		{
			"absurd cert count",
			patchHeader(t, snap, func(fixed, table []byte) {
				binary.LittleEndian.PutUint64(fixed[8:], 1<<40)
			}),
			"absurd counts",
		},
		{
			"absurd shard count",
			patchHeader(t, snap, func(fixed, table []byte) {
				binary.LittleEndian.PutUint32(fixed[32:], 1<<20)
			}),
			"exceed cap",
		},
		{
			"cert count without shards",
			patchHeader(t, snap, func(fixed, table []byte) {
				binary.LittleEndian.PutUint32(fixed[32:], 0)
			}),
			"shard/count mismatch",
		},
		{
			"absurd shard raw length",
			patchHeader(t, snap, func(fixed, table []byte) {
				binary.LittleEndian.PutUint64(table[16:], maxShardRaw+1)
			}),
			"raw bytes, cap",
		},
		{
			"gzip bomb ratio",
			patchHeader(t, snap, func(fixed, table []byte) {
				binary.LittleEndian.PutUint64(table[16:], maxShardRaw)
			}),
			"ratio cap",
		},
		{
			"non-contiguous shards",
			patchHeader(t, snap, func(fixed, table []byte) {
				binary.LittleEndian.PutUint64(table[tableEntry:], 9) // second shard's first
			}),
			"starts at",
		},
		{
			"shards overrun count",
			patchHeader(t, snap, func(fixed, table []byte) {
				binary.LittleEndian.PutUint64(table[8:], 9999) // first shard's count
			}),
			"overrun",
		},
		{
			"lying raw length",
			patchHeader(t, snap, func(fixed, table []byte) {
				n := binary.LittleEndian.Uint64(table[16:])
				binary.LittleEndian.PutUint64(table[16:], n-1)
			}),
			"longer than advertised",
		},
		{
			"observation count mismatch",
			patchHeader(t, snap, func(fixed, table []byte) {
				n := binary.LittleEndian.Uint64(fixed[24:])
				binary.LittleEndian.PutUint64(fixed[24:], n+1)
			}),
			"observations",
		},
		{"v1 truncated gzip", v1[:len(v1)-20], "v1"},
		{"v1 header only", v1[:5], "v1"},
		{"v1 garbage body", append(append([]byte(nil), v1[:10]...), []byte("not gob at all")...), "v1"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				_, err := Read(bytes.NewReader(tc.input), Options{Workers: workers})
				if err == nil {
					t.Fatalf("corrupt input accepted (workers=%d)", workers)
				}
				if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
					t.Fatalf("error %q does not mention %q", err, tc.wantSub)
				}
			}
		})
	}
}

// VerifyDigests must catch a digest column that disagrees with the DER — a
// forgery the shard checksum alone would bless if an attacker rewrote both.
func TestVerifyDigestsCatchesForgedColumn(t *testing.T) {
	c := testCorpus(t, 5, 1, 4)
	var lens []uint32
	var ders []byte
	var fps []x509lite.Fingerprint
	for _, rec := range c.Certs() {
		lens = append(lens, uint32(len(rec.Cert.Raw)))
		ders = append(ders, rec.Cert.Raw...)
		fps = append(fps, rec.Cert.Fingerprint())
	}
	raw := encodeCertShard(lens, ders, fps)
	raw[len(raw)-1] ^= 0xff // last digest byte
	if _, err := decodeCertShard(raw, 5, true); err == nil {
		t.Fatal("forged digest column accepted with VerifyDigests")
	} else if !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Without verification the forged digest is adopted (attestation model).
	certs, err := decodeCertShard(raw, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if certs[4].Fingerprint() == c.Cert(4).Cert.Fingerprint() {
		t.Fatal("expected adopted forged digest to differ")
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
// zero, recomputing the shard and header checksums so every integrity check
// passes and only the scan-shard decoder itself can reject it — the shape a
// random bit-flip can never produce.
func forgeObsOverflow(tb testing.TB, snap []byte) []byte {
	tb.Helper()
	fixed := snap[:headerFixed]
	nShards := int(binary.LittleEndian.Uint32(fixed[32:]) + binary.LittleEndian.Uint32(fixed[36:]))
	tableLen := nShards * tableEntry
	// Payloads sit after the table and header checksum, in table order; the
	// last shard is always a scan shard.
	off := headerFixed + tableLen + sha256.Size
	for i := 0; i < nShards-1; i++ {
		off += int(binary.LittleEndian.Uint64(snap[headerFixed+i*tableEntry+24:]))
	}
	last := headerFixed + (nShards-1)*tableEntry
	count := int(binary.LittleEndian.Uint64(snap[last+8:]))

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
	comp, err := gzipShard(raw)
	if err != nil {
		tb.Fatal(err)
	}
	out := append([]byte(nil), snap[:off]...)
	out = append(out, comp...)
	binary.LittleEndian.PutUint64(out[last+16:], uint64(len(raw)))
	binary.LittleEndian.PutUint64(out[last+24:], uint64(len(comp)))
	sum := sha256.Sum256(comp)
	copy(out[last+32:], sum[:])
	head := sha256.Sum256(out[:headerFixed+tableLen])
	copy(out[headerFixed+tableLen:], head[:])
	return out
}

// The overflow shape must surface as an explicit Read error — not a decode
// worker panic — when carried by a fully checksummed v2 file.
func TestReadObsCountOverflowFile(t *testing.T) {
	forged := forgeObsOverflow(t, validV2(t))
	for _, workers := range []int{1, 4} {
		_, err := Read(bytes.NewReader(forged), Options{Workers: workers})
		if err == nil {
			t.Fatalf("forged snapshot accepted (workers=%d)", workers)
		}
		if !strings.Contains(err.Error(), "observations") {
			t.Fatalf("unexpected error: %v", err)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}
