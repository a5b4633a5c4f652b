package scanner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"securepki/internal/devicesim"
)

// fakeChunk builds a synthetic chunk record: per scan, a few new certs and
// observations with recognisable bytes.
func fakeChunk(nScans, seed int) *chunkRecord {
	rec := newChunkRecord(nScans)
	for s := 0; s < nScans; s++ {
		for j := 0; j < 2+s; j++ {
			var c newCert
			c.FP[0], c.FP[1] = byte(seed), byte(s*16+j)
			c.SPKI[0] = byte(seed ^ 0x5a)
			c.DER = []byte{byte(seed), byte(s), byte(j), 0xde, 0xad}
			rec.addCert(s, c)
		}
		for j := 0; j < 5; j++ {
			rec.addObs(s, obsRec{Local: uint32(j), IP: uint32(seed<<16 | s<<8 | j)})
		}
	}
	return rec
}

// buildChunk feeds rec to the store as the next chunk's record, through
// the calls StreamRun makes.
func buildChunk(cs *ChunkStore, rec *chunkRecord) error {
	cs.beginChunk()
	for s := range rec.certs {
		for _, c := range rec.certs[s] {
			cs.addCert(s, c)
		}
		for _, o := range rec.obs[s] {
			cs.addObs(s, o)
		}
	}
	return cs.endChunk()
}

// fillStore builds n fake chunks in the store and returns unspilled copies
// of their records.
func fillStore(t *testing.T, cs *ChunkStore, n, nScans int) []*chunkRecord {
	t.Helper()
	recs := make([]*chunkRecord, n)
	for k := 0; k < n; k++ {
		recs[k] = fakeChunk(nScans, k+1)
		if err := buildChunk(cs, recs[k]); err != nil {
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
			certs, obs, err := cs.section(k, s)
			if err != nil {
				t.Fatalf("section(%d,%d): %v", k, s, err)
			}
			if !reflect.DeepEqual(certs, want[k].certs[s]) && !(len(certs) == 0 && len(want[k].certs[s]) == 0) {
				t.Fatalf("section(%d,%d) certs differ", k, s)
			}
			if !reflect.DeepEqual(obs, want[k].obs[s]) && !(len(obs) == 0 && len(want[k].obs[s]) == 0) {
				t.Fatalf("section(%d,%d) obs differ", k, s)
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

// TestChunkStoreSpillFailsWhileGrowing: a spill that fails while a record
// grows, here because the spill directory is gone, stops the spilling, and
// endChunk reports it instead of adding the record.
func TestChunkStoreSpillFailsWhileGrowing(t *testing.T) {
	rec := fakeChunk(2, 1)
	cs := NewChunkStore(2, rec.bytes+1, filepath.Join(t.TempDir(), "gone"))
	defer cs.Close()
	if err := buildChunk(cs, rec); err != nil {
		t.Fatalf("first chunk fits the budget, yet: %v", err)
	}
	err := buildChunk(cs, fakeChunk(2, 2))
	if err == nil || !strings.Contains(err.Error(), "write chunk spill") {
		t.Fatalf("endChunk after a failed spill: err = %v, want a chunk spill error", err)
	}
	if cs.NumChunks() != 1 || cs.LiveChunks() != 1 || cs.Spills() != 0 {
		t.Fatalf("store holds %d chunks, %d live, %d spilled; want the first chunk alone, live", cs.NumChunks(), cs.LiveChunks(), cs.Spills())
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
	if _, _, err := cs.section(0, 0); err != nil {
		t.Fatalf("clean section before the corruption: %v", err)
	}
	if _, _, err := cs.section(0, 1); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
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
	if _, _, err := cs.section(0, 0); err != nil {
		t.Fatalf("section before the cut: %v", err)
	}
	if _, _, err := cs.section(0, 1); err == nil {
		t.Fatal("truncated section read succeeded")
	}
}

// TestChunkStoreSectionsInScanOrder: a spilled chunk streams its sections
// back in scan order, each once; asking for any other is an explicit error.
func TestChunkStoreSectionsInScanOrder(t *testing.T) {
	cs := NewChunkStore(3, 1, t.TempDir())
	defer cs.Close()
	fillStore(t, cs, 1, 3)
	if _, _, err := cs.section(0, 1); err == nil || !strings.Contains(err.Error(), "out of scan order") {
		t.Fatalf("section 1 before section 0: err = %v, want out of scan order", err)
	}
	if _, _, err := cs.section(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.section(0, 0); err == nil || !strings.Contains(err.Error(), "out of scan order") {
		t.Fatalf("section 0 read twice: err = %v, want out of scan order", err)
	}
	for s := 1; s < 3; s++ {
		if _, _, err := cs.section(0, s); err != nil {
			t.Fatalf("section(0,%d) in order: %v", s, err)
		}
	}
}

// TestDecodeSectionRejectsMalformed drives decodeSection with structurally
// broken payloads: short cert headers, overlong DER claims, trailing bytes,
// short observations.
func TestDecodeSectionRejectsMalformed(t *testing.T) {
	var good newCert
	good.FP[0], good.SPKI[0] = 1, 2
	good.DER = []byte{1, 2, 3}
	enc := encodeSection(nil, []newCert{good}, []obsRec{{Local: 0, IP: 7}})
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

// envelopeRun is what one chunked sweep left in its store: every spill as
// the (chunk, run, bytes) triple core journals as a spill event, the spill
// count and bytes, the live high water, and each chunk's record size.
type envelopeRun struct {
	events    []string
	spills    int
	bytes     int64
	highWater int64
	records   []int64
}

// sweepSmallConfig streams core.SmallConfig's world (1,500 devices, 650
// sites, 16 + 8 scans) through a chunk store and reads every section back.
func sweepSmallConfig(t *testing.T, chunk int, budget int64, workers int) envelopeRun {
	t.Helper()
	wcfg := devicesim.DefaultConfig()
	wcfg.NumDevices, wcfg.NumSites = 1500, 650
	gen, err := devicesim.NewGenerator(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.UMichScans, cfg.Rapid7Scans = 16, 8
	camp, err := New(gen.World(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nScans := len(camp.Schedule())
	cs := NewChunkStore(nScans, budget, t.TempDir())
	defer cs.Close()
	var run envelopeRun
	cs.OnSpill = func(chunk int, n int64) {
		run.events = append(run.events, fmt.Sprintf("%d:%d:%d", chunk, cs.Spills(), n))
	}
	if err := camp.StreamRun(gen, chunk, workers, cs); err != nil {
		t.Fatal(err)
	}
	run.spills, run.bytes, run.highWater = cs.Spills(), cs.SpilledBytes(), cs.LiveHighWater()
	recs := make([]*chunkRecord, cs.NumChunks())
	for k := range recs {
		recs[k] = newChunkRecord(nScans)
	}
	for s := 0; s < nScans; s++ {
		for k, rec := range recs {
			certs, obs, err := cs.section(k, s)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range certs {
				rec.addCert(s, c)
			}
			for _, o := range obs {
				rec.addObs(s, o)
			}
		}
	}
	for _, rec := range recs {
		run.records = append(run.records, rec.bytes)
	}
	return run
}

// TestChunkStoreEnvelope sweeps SmallConfig's world at chunk sizes {1, 64,
// 1024, 2²⁰} hosts × budgets {1 B, 16 KiB, 2 MiB, the default}. The spills
// counting the record being built makes equal those of the rule that
// counted a chunk's record only once it was complete: the pinned spill
// counts, bytes and SHA-256s of the (chunk, run, bytes) triples are that
// rule's. The live chunks plus the record being built never exceed the
// budget unless that record alone does, so the high water is within the
// budget, or, when some record exceeds it, is the largest record. The
// sweep at 64-host chunks and 2 MiB, which spills 5 of its 34 chunks, runs
// again at four workers: the same spills and high water. (Every row at
// four workers too would double the test's cost for what the serial sink
// already guarantees; core's TestPipelineObsDeterministic compares the
// gauge at workers 1 and 4 as well.)
func TestChunkStoreEnvelope(t *testing.T) {
	const noSpill = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	rows := []struct {
		chunk     int
		budget    int64
		spills    int
		bytes     int64
		events    string
		highWater int64
	}{
		{1, 1, 2150, 2627365, "3664fc5f9e16d005c638be9fc0ca6dee8bf2e03126b794f26153e16d5f7adf63", 22123},
		{1, 16 << 10, 2136, 2611367, "981e898193aae5ceec425676e548d1292b6a777a931b51fc296d1091c608a2d3", 22123},
		{1, 2 << 20, 484, 558242, "c303a105905b954a8a268d86306b322545d6eca46cddb8f359986dc22839f2df", 2097152},
		{1, 0, 0, 0, noSpill, 2664631},
		{64, 1, 34, 2408617, "77e1025fd0c7e134b4e424aa0c215fcc7732c111a663a0919ad96bb5080bd0d4", 113972},
		{64, 16 << 10, 34, 2408617, "77e1025fd0c7e134b4e424aa0c215fcc7732c111a663a0919ad96bb5080bd0d4", 113972},
		{64, 2 << 20, 5, 376625, "32c2adb88fc3dd73e9bfc18b53d29ddefcaf819406db66943fd166c35981e535", 2097149},
		{64, 0, 0, 0, noSpill, 2442193},
		{1024, 1, 3, 2351731, "3258b679fa941447ef1f8dc06943dafee1635a574efe0cd16b1d9f5131d82055", 1188152},
		{1024, 16 << 10, 3, 2351731, "3258b679fa941447ef1f8dc06943dafee1635a574efe0cd16b1d9f5131d82055", 1188152},
		{1024, 2 << 20, 1, 1168250, "cf11db60c302dcf36e3de4a1d041a223c049207b231335b55d16b62ba9fc1a18", 2097149},
		{1024, 0, 0, 0, noSpill, 2384455},
		{1 << 20, 1, 1, 2343243, "9cacbb73cf69f8f6645fcfefb554eeadfbcd1532d85e92b3c55accf6b9920c7a", 2375841},
		{1 << 20, 16 << 10, 1, 2343243, "9cacbb73cf69f8f6645fcfefb554eeadfbcd1532d85e92b3c55accf6b9920c7a", 2375841},
		{1 << 20, 2 << 20, 1, 2343243, "9cacbb73cf69f8f6645fcfefb554eeadfbcd1532d85e92b3c55accf6b9920c7a", 2375841},
		{1 << 20, 0, 0, 0, noSpill, 2375841},
	}
	for _, row := range rows {
		name := fmt.Sprintf("chunk=%d/budget=%d", row.chunk, row.budget)
		run := sweepSmallConfig(t, row.chunk, row.budget, 1)
		sum := sha256.Sum256([]byte(strings.Join(run.events, ";")))
		if run.spills != row.spills || run.bytes != row.bytes || hex.EncodeToString(sum[:]) != row.events {
			t.Errorf("%s: %d spills, %d bytes, events %x; want %d, %d, %s",
				name, run.spills, run.bytes, sum, row.spills, row.bytes, row.events)
		}
		if run.highWater != row.highWater {
			t.Errorf("%s: live high water %d, want %d", name, run.highWater, row.highWater)
		}
		budget := row.budget
		if budget <= 0 {
			budget = 256 << 20
		}
		if largest := slices.Max(run.records); largest > budget {
			if run.highWater != largest {
				t.Errorf("%s: live high water %d; a %d-byte record exceeds the %d-byte budget, so it should be the largest record",
					name, run.highWater, largest, budget)
			}
		} else if run.highWater > budget {
			t.Errorf("%s: live high water %d exceeds the %d-byte budget", name, run.highWater, budget)
		}
		if row.chunk == 64 && row.budget == 2<<20 {
			again := sweepSmallConfig(t, row.chunk, row.budget, 4)
			if !slices.Equal(again.events, run.events) || again.highWater != run.highWater {
				t.Errorf("%s: spills or live high water differ between workers 1 and 4", name)
			}
		}
	}
}
