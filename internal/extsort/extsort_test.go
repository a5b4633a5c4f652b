package extsort

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"securepki/internal/stats"
)

// rec is the test record: a key plus an insertion sequence number so tests
// can prove stability without relying on the key.
type rec struct {
	key uint32
	seq uint32
}

func recConfig(dir string, budget int64) Config[rec] {
	return Config[rec]{
		Size: 8,
		Encode: func(dst []byte, r rec) {
			binary.LittleEndian.PutUint32(dst, r.key)
			binary.LittleEndian.PutUint32(dst[4:], r.seq)
		},
		Decode: func(src []byte) rec {
			return rec{key: binary.LittleEndian.Uint32(src), seq: binary.LittleEndian.Uint32(src[4:])}
		},
		Less:      func(a, b rec) bool { return a.key < b.key },
		MemBudget: budget,
		Dir:       dir,
	}
}

// drain merges the sorter into a slice.
func drain(t *testing.T, s *Sorter[rec]) []rec {
	t.Helper()
	var out []rec
	if err := s.Merge(func(r rec) error { out = append(out, r); return nil }); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	return out
}

// TestSorterMatchesInMemorySort proves the external path (tiny budget, many
// runs) produces exactly the stable in-memory sort, for several budgets.
func TestSorterMatchesInMemorySort(t *testing.T) {
	rng := stats.NewRNG(42)
	const n = 5000
	input := make([]rec, n)
	for i := range input {
		input[i] = rec{key: uint32(rng.Intn(300)), seq: uint32(i)} // heavy key collisions
	}
	want := append([]rec(nil), input...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })

	for _, budget := range []int64{1, 64, 4 << 10, 1 << 30} {
		s, err := NewSorter(recConfig(t.TempDir(), budget))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range input {
			if err := s.Add(r); err != nil {
				t.Fatalf("budget %d: Add: %v", budget, err)
			}
		}
		if budget == 1 && s.Runs() == 0 {
			t.Fatalf("budget 1: expected spilled runs")
		}
		if budget == 1<<30 && s.Runs() != 0 {
			t.Fatalf("budget 1<<30: unexpected spill")
		}
		got := drain(t, s)
		if len(got) != len(want) {
			t.Fatalf("budget %d: %d records, want %d", budget, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("budget %d: record %d = %+v, want %+v (stability violated)", budget, i, got[i], want[i])
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestSorterCloseRemovesRuns checks no spill shards outlive Close.
func TestSorterCloseRemovesRuns(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSorter(recConfig(dir, 16))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Add(rec{key: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Runs() == 0 {
		t.Fatal("expected runs")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "extsort-run-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill shards left after Close: %v", left)
	}
}

// spillShardPath returns the single run shard a sorter has spilled.
func spillShardPath(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "extsort-run-*"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want exactly one run shard, got %v (err %v)", paths, err)
	}
	return paths[0]
}

// corruptSorter builds a sorter with exactly one spilled run and hands the
// shard path to mutate, then asserts Merge fails.
func corruptSorter(t *testing.T, mutate func(path string)) {
	t.Helper()
	dir := t.TempDir()
	s, err := NewSorter(recConfig(dir, 64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // 64 bytes → exactly one spill
		if err := s.Add(rec{key: uint32(i), seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Runs() != 1 {
		t.Fatalf("want 1 run, got %d", s.Runs())
	}
	defer s.Close()
	mutate(spillShardPath(t, dir))
	err = s.Merge(func(rec) error { return nil })
	if err == nil {
		t.Fatal("Merge succeeded over a corrupt run shard")
	}
	t.Logf("detected: %v", err)
}

func rewrite(t *testing.T, path string, mutate func(b []byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMergeDetectsBitFlip: a payload bit flip fails the digest check.
func TestMergeDetectsBitFlip(t *testing.T) {
	corruptSorter(t, func(path string) {
		rewrite(t, path, func(b []byte) []byte {
			b[runHeaderLen+3] ^= 0x40
			return b
		})
	})
}

// TestMergeDetectsTruncation: a shard cut short fails before decoding.
func TestMergeDetectsTruncation(t *testing.T) {
	corruptSorter(t, func(path string) {
		rewrite(t, path, func(b []byte) []byte { return b[:len(b)-5] })
	})
}

// TestMergeDetectsBadMagic: a foreign file is rejected up front.
func TestMergeDetectsBadMagic(t *testing.T) {
	corruptSorter(t, func(path string) {
		rewrite(t, path, func(b []byte) []byte {
			copy(b, "NOTARUN!")
			return b
		})
	})
}

// TestMergeDetectsCountLie: an inflated record count is a size mismatch.
func TestMergeDetectsCountLie(t *testing.T) {
	corruptSorter(t, func(path string) {
		rewrite(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 1<<40)
			return b
		})
	})
}

// TestMergeDetectsWrongRecordSize: a width mismatch is rejected up front.
func TestMergeDetectsWrongRecordSize(t *testing.T) {
	corruptSorter(t, func(path string) {
		rewrite(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 12)
			return b
		})
	})
}

// TestMergeSortedStable merges pre-sorted in-memory runs stably.
func TestMergeSortedStable(t *testing.T) {
	runs := [][]rec{
		{{1, 0}, {3, 1}, {3, 2}},
		{{1, 10}, {2, 11}},
		{{3, 20}},
	}
	var got []rec
	MergeSorted(runs, func(a, b rec) bool { return a.key < b.key }, func(r rec) { got = append(got, r) })
	want := []rec{{1, 0}, {1, 10}, {2, 11}, {3, 1}, {3, 2}, {3, 20}}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestSpillFileRoundTrip writes, reads back twice, and verify-copies.
func TestSpillFileRoundTrip(t *testing.T) {
	sf, err := NewSpillFile(t.TempDir(), "payload-*.spill")
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Remove()
	var want bytes.Buffer
	rng := stats.NewRNG(7)
	for i := 0; i < 100; i++ {
		chunk := make([]byte, rng.Intn(2000)+1)
		for j := range chunk {
			chunk[j] = byte(rng.Uint32())
		}
		want.Write(chunk)
		if _, err := sf.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if sf.Len() != int64(want.Len()) {
		t.Fatalf("Len %d, want %d", sf.Len(), want.Len())
	}
	for pass := 0; pass < 2; pass++ {
		var got bytes.Buffer
		if err := sf.VerifyCopy(&got); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("pass %d: copy differs", pass)
		}
	}
}

// TestSpillFileDetectsRot flips a byte on disk after writing; VerifyCopy
// must refuse to pass the rotted bytes through silently.
func TestSpillFileDetectsRot(t *testing.T) {
	dir := t.TempDir()
	sf, err := NewSpillFile(dir, "payload-*.spill")
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Remove()
	if _, err := sf.Write(bytes.Repeat([]byte{0xAA}, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Reader(); err != nil { // flush
		t.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "payload-*"))
	if len(paths) != 1 {
		t.Fatalf("want one spill file, got %v", paths)
	}
	rewrite(t, paths[0], func(b []byte) []byte { b[100] ^= 1; return b })
	if err := sf.VerifyCopy(&bytes.Buffer{}); err == nil {
		t.Fatal("VerifyCopy passed rotted bytes")
	}
}
