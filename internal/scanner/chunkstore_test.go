package scanner

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fakeChunk builds a synthetic chunk record: per scan, a few new certs and
// observations with recognisable bytes.
func fakeChunk(nScans, seed int) *chunkRecord {
	rec := newChunkRecord(nScans)
	for s := 0; s < nScans; s++ {
		for j := 0; j < 2+s; j++ {
			var c NewCert
			c.FP[0], c.FP[1] = byte(seed), byte(s*16+j)
			c.SPKI[0] = byte(seed ^ 0x5a)
			c.DER = []byte{byte(seed), byte(s), byte(j), 0xde, 0xad}
			rec.addCert(s, c)
		}
		for j := 0; j < 5; j++ {
			rec.addObs(s, ObsRec{Local: uint32(j), IP: uint32(seed<<16 | s<<8 | j)})
		}
	}
	return rec
}

// fillStore adds n fake chunks and returns the expected sections.
func fillStore(t *testing.T, cs *ChunkStore, n, nScans int) []*chunkRecord {
	t.Helper()
	recs := make([]*chunkRecord, n)
	for k := 0; k < n; k++ {
		recs[k] = fakeChunk(nScans, k+1)
		// Keep an unspilled copy for comparison: Add may spill the original.
		if err := cs.Add(fakeChunk(nScans, k+1)); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// TestChunkStoreSpillRoundTrip forces every chunk to disk and reads all
// sections back identical to the live ones.
func TestChunkStoreSpillRoundTrip(t *testing.T) {
	const nChunks, nScans = 4, 3
	cs := NewChunkStore(nScans, 1, t.TempDir()) // 1-byte budget: spill everything
	defer cs.Close()
	want := fillStore(t, cs, nChunks, nScans)
	if cs.Spills() != nChunks {
		t.Fatalf("spilled %d of %d chunks under a 1-byte budget", cs.Spills(), nChunks)
	}
	if cs.LiveChunks() != 0 {
		t.Fatalf("%d chunks still live", cs.LiveChunks())
	}
	if cs.SpilledBytes() == 0 {
		t.Fatal("SpilledBytes() == 0 after spilling")
	}
	for k := 0; k < nChunks; k++ {
		for s := 0; s < nScans; s++ {
			certs, obs, err := cs.Section(k, s)
			if err != nil {
				t.Fatalf("Section(%d,%d): %v", k, s, err)
			}
			if !reflect.DeepEqual(certs, want[k].certs[s]) && !(len(certs) == 0 && len(want[k].certs[s]) == 0) {
				t.Fatalf("Section(%d,%d) certs differ", k, s)
			}
			if !reflect.DeepEqual(obs, want[k].obs[s]) && !(len(obs) == 0 && len(want[k].obs[s]) == 0) {
				t.Fatalf("Section(%d,%d) obs differ", k, s)
			}
		}
	}
}

// TestChunkStoreBudgetKeepsRecentLive checks the spill policy: with a budget
// that fits roughly one chunk, older chunks spill and the newest stays live.
func TestChunkStoreBudgetKeepsRecentLive(t *testing.T) {
	rec := fakeChunk(2, 1)
	cs := NewChunkStore(2, rec.bytes+1, t.TempDir())
	defer cs.Close()
	spilled := 0
	cs.OnSpill = func(chunk int, n int64) {
		spilled++
		if n <= 0 {
			t.Fatalf("OnSpill reported %d bytes", n)
		}
	}
	fillStore(t, cs, 3, 2)
	if cs.LiveChunks() != 1 {
		t.Fatalf("LiveChunks = %d, want 1", cs.LiveChunks())
	}
	if spilled != 2 || cs.Spills() != 2 {
		t.Fatalf("spilled %d chunks (callback %d), want 2", cs.Spills(), spilled)
	}
	// The live chunk must be the newest.
	if cs.live[2] == nil {
		t.Fatal("newest chunk was spilled; policy must evict oldest first")
	}
}

// spillPath returns the one spill file in dir: the store's spilled chunk.
func spillPath(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files in the spill dir, want the one spilled chunk", len(entries))
	}
	return filepath.Join(dir, entries[0].Name())
}

// TestChunkStoreDetectsCorruption flips one payload byte in a spilled chunk
// and demands an explicit digest error once its sections are read, not
// silent bad data.
func TestChunkStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	cs := NewChunkStore(2, 1, dir)
	defer cs.Close()
	fillStore(t, cs, 1, 2)
	sp := cs.spilled[0]
	if sp == nil {
		t.Fatal("chunk not spilled")
	}
	// Flip a byte inside section 1's range.
	f, err := os.OpenFile(spillPath(t, dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, sp.sections[0].len+sp.sections[1].len/2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// The section before the flip still reads; the digest is checked with
	// the last section.
	if _, _, err := cs.Section(0, 0); err != nil {
		t.Fatalf("clean section before the corruption: %v", err)
	}
	if _, _, err := cs.Section(0, 1); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("corrupt section error = %v, want digest mismatch", err)
	}
}

// TestChunkStoreDetectsTruncation chops the spill file short and demands a
// read error for the section past the cut.
func TestChunkStoreDetectsTruncation(t *testing.T) {
	dir := t.TempDir()
	cs := NewChunkStore(2, 1, dir)
	defer cs.Close()
	fillStore(t, cs, 1, 2)
	sp := cs.spilled[0]
	if err := os.Truncate(spillPath(t, dir), sp.sections[0].len+sp.sections[1].len/2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.Section(0, 0); err != nil {
		t.Fatalf("section before the cut: %v", err)
	}
	if _, _, err := cs.Section(0, 1); err == nil {
		t.Fatal("truncated section read succeeded")
	}
}

// TestChunkStoreSectionsInScanOrder: a spilled chunk streams its sections
// back in scan order, each once; asking for any other is an explicit error.
func TestChunkStoreSectionsInScanOrder(t *testing.T) {
	cs := NewChunkStore(3, 1, t.TempDir())
	defer cs.Close()
	fillStore(t, cs, 1, 3)
	if _, _, err := cs.Section(0, 1); err == nil || !strings.Contains(err.Error(), "out of scan order") {
		t.Fatalf("section 1 before section 0: err = %v, want out of scan order", err)
	}
	if _, _, err := cs.Section(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.Section(0, 0); err == nil || !strings.Contains(err.Error(), "out of scan order") {
		t.Fatalf("section 0 read twice: err = %v, want out of scan order", err)
	}
	for s := 1; s < 3; s++ {
		if _, _, err := cs.Section(0, s); err != nil {
			t.Fatalf("Section(0,%d) in order: %v", s, err)
		}
	}
}

// TestDecodeSectionRejectsMalformed drives decodeSection with structurally
// broken payloads: short cert headers, overlong DER claims, trailing bytes,
// short observations.
func TestDecodeSectionRejectsMalformed(t *testing.T) {
	var good NewCert
	good.FP[0], good.SPKI[0] = 1, 2
	good.DER = []byte{1, 2, 3}
	enc := encodeSection(nil, []NewCert{good}, []ObsRec{{Local: 0, IP: 7}})
	certPart, obsPart := enc[:len(enc)-8], enc[len(enc)-8:]

	cases := map[string][2][]byte{
		"short header":       {certPart[:40], obsPart},
		"truncated der":      {certPart[:66], obsPart},
		"trailing bytes":     {append(append([]byte(nil), certPart...), 0), obsPart},
		"short observations": {certPart, obsPart[:7]},
	}
	for name, parts := range cases {
		if _, _, err := decodeSection(parts[0], parts[1], 1, 1, 0, 0); err == nil {
			t.Fatalf("%s: decode succeeded", name)
		}
	}
	certs, obs, err := decodeSection(certPart, obsPart, 1, 1, 0, 0)
	if err != nil || len(certs) != 1 || len(obs) != 1 {
		t.Fatalf("clean decode: certs=%d obs=%d err=%v", len(certs), len(obs), err)
	}
}

// TestChunkStoreCloseRemovesFiles verifies no spill files survive Close.
func TestChunkStoreCloseRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	cs := NewChunkStore(1, 1, dir)
	fillStore(t, cs, 2, 1)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("%d spill files left after Close", len(entries))
	}
}
