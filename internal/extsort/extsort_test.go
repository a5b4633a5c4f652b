package extsort

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
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
		// Big-endian key then sequence: byte order is (key, insertion) order.
		Encode: func(dst []byte, r rec) {
			binary.BigEndian.PutUint32(dst, r.key)
			binary.BigEndian.PutUint32(dst[4:], r.seq)
		},
		Decode: func(src []byte) rec {
			return rec{key: binary.BigEndian.Uint32(src), seq: binary.BigEndian.Uint32(src[4:])}
		},
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
// runs) produces exactly the stable in-memory sort, for several budgets and
// key shapes: heavy collisions, one key, ascending, descending and two
// keys.
func TestSorterMatchesInMemorySort(t *testing.T) {
	rng := stats.NewRNG(42)
	const n = 5000
	keys := map[string]func(i int) uint32{
		"collisions": func(int) uint32 { return uint32(rng.Intn(300)) },
		"all-equal":  func(int) uint32 { return 7 },
		"ascending":  func(i int) uint32 { return uint32(i) },
		"descending": func(i int) uint32 { return uint32(n - i) },
		"two-valued": func(int) uint32 { return uint32(rng.Intn(2)) << 24 },
	}
	for _, name := range []string{"collisions", "all-equal", "ascending", "descending", "two-valued"} {
		input := make([]rec, n)
		for i := range input {
			input[i] = rec{key: keys[name](i), seq: uint32(i)}
		}
		want := append([]rec(nil), input...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })

		for _, budget := range []int64{1, 64, 4 << 10, 1 << 30} {
			if budget < 4<<10 && name != "collisions" {
				continue // hundreds of runs or more: one shape is enough
			}
			s, err := NewSorter(recConfig(t.TempDir(), budget))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range input {
				if err := s.Add(r); err != nil {
					t.Fatalf("%s budget %d: Add: %v", name, budget, err)
				}
			}
			if budget <= 4<<10 && s.Runs() < 3 {
				t.Fatalf("%s budget %d: %d spilled runs, want at least 3", name, budget, s.Runs())
			}
			if budget == 1<<30 && s.Runs() != 0 {
				t.Fatalf("%s budget 1<<30: unexpected spill", name)
			}
			got := drain(t, s)
			if len(got) != len(want) {
				t.Fatalf("%s budget %d: %d records, want %d", name, budget, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s budget %d: record %d = %+v, want %+v (stability violated)", name, budget, i, got[i], want[i])
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
	}
}

// TestSorterCloseRemovesRuns checks no run files outlive Close.
// TestSorterGrow: Grow reserves room for the records announced, never past
// the length the sorter spills at, so the records that follow never move
// the buffer, and the sorted output is unchanged.
func TestSorterGrow(t *testing.T) {
	for _, tc := range []struct {
		budget  int64
		records int
		want    int // buffer capacity after Grow, in bytes
	}{
		{1 << 20, 100, 800},         // fits: exactly the records
		{804, 1000, 808},            // capped at the 101 records Add spills at
		{1 << 20, 0, 0},             // nothing announced, nothing reserved
		{800, 100, 800},             // budget a whole number of records
		{1 << 20, 1 << 17, 1 << 20}, // capped at the budget
	} {
		s, err := NewSorter(recConfig(t.TempDir(), tc.budget))
		if err != nil {
			t.Fatal(err)
		}
		s.Grow(tc.records)
		if cap(s.buf) < tc.want || cap(s.buf) > tc.want*9/8+128 { // allocator size classes
			t.Errorf("budget %d, %d records: capacity %d, want %d", tc.budget, tc.records, cap(s.buf), tc.want)
		}
		buf := s.buf[:cap(s.buf)]
		var in []rec
		for i := 0; i < tc.records && i < tc.want/8; i++ {
			r := rec{key: uint32(tc.records - i), seq: uint32(i)}
			in = append(in, r)
			if err := s.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		if len(in) > 0 && s.Runs() == 0 && &s.buf[:1][0] != &buf[0] {
			t.Errorf("budget %d: an Add after Grow moved the buffer", tc.budget)
		}
		slices.SortFunc(in, func(a, b rec) int { return int(a.key) - int(b.key) })
		if got := drain(t, s); !slices.Equal(got, in) {
			t.Errorf("budget %d: sorted output differs", tc.budget)
		}
		s.Close()
	}
}

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
		t.Fatalf("run files left after Close: %v", left)
	}
}

// runPath returns the single run file a sorter has spilled.
func runPath(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "extsort-run-*"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want exactly one run file, got %v (err %v)", paths, err)
	}
	return paths[0]
}

// corruptSorter builds a sorter with exactly one spilled run, 8 records of
// 8 bytes, and hands the run file's path to mutate, then asserts Merge
// fails.
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
	mutate(runPath(t, dir))
	err = s.Merge(func(rec) error { return nil })
	if err == nil {
		t.Fatal("Merge succeeded over a corrupt run")
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

// TestMergeDetectsBitFlip: a record bit flip fails the digest check.
func TestMergeDetectsBitFlip(t *testing.T) {
	corruptSorter(t, func(path string) {
		rewrite(t, path, func(b []byte) []byte {
			b[3] ^= 0x40
			return b
		})
	})
}

// TestMergeDetectsTruncation: a run cut short fails the digest check.
func TestMergeDetectsTruncation(t *testing.T) {
	corruptSorter(t, func(path string) {
		rewrite(t, path, func(b []byte) []byte { return b[:len(b)-5] })
	})
}

// TestMergeDetectsBadMagic: a foreign magic over a run's first 8 bytes
// fails the digest check.
func TestMergeDetectsBadMagic(t *testing.T) {
	corruptSorter(t, func(path string) {
		rewrite(t, path, func(b []byte) []byte {
			copy(b, "NOTARUN!")
			return b
		})
	})
}

// TestMergeDetectsCountLie: a huge little-endian record count over bytes
// 16–23 fails the digest check.
func TestMergeDetectsCountLie(t *testing.T) {
	corruptSorter(t, func(path string) {
		rewrite(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 1<<40)
			return b
		})
	})
}

// TestMergeDetectsWrongRecordSize: another record width over bytes 8–11
// fails the digest check.
func TestMergeDetectsWrongRecordSize(t *testing.T) {
	corruptSorter(t, func(path string) {
		rewrite(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 12)
			return b
		})
	})
}

// TestMergeSources drives the shared k-way merge directly: no sources, one
// source, drained sources among live ones, equal records from two sources,
// and a source that fails partway, which ends the merge with its error.
func TestMergeSources(t *testing.T) {
	from := func(recs ...int) func() (int, bool, error) {
		return func() (int, bool, error) {
			if len(recs) == 0 {
				return 0, false, nil
			}
			r := recs[0]
			recs = recs[1:]
			return r, true, nil
		}
	}
	merge := func(srcs ...func() (int, bool, error)) ([]int, error) {
		var out []int
		err := Merge(srcs, func(a, b int) bool { return a < b }, func(r int) error {
			out = append(out, r)
			return nil
		})
		return out, err
	}
	for _, tc := range []struct {
		name string
		srcs []func() (int, bool, error)
		want []int
	}{
		{"no sources", nil, nil},
		{"one source", []func() (int, bool, error){from(1, 2, 3)}, []int{1, 2, 3}},
		{"empty sources", []func() (int, bool, error){from(), from(2, 4), from(), from(1, 3), from()}, []int{1, 2, 3, 4}},
		{"equal records", []func() (int, bool, error){from(1, 5, 5, 9), from(5, 9)}, []int{1, 5, 5, 5, 9, 9}},
	} {
		got, err := merge(tc.srcs...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(got, tc.want) {
			t.Fatalf("%s: merged %v, want %v", tc.name, got, tc.want)
		}
	}

	// The failing source yields 2 and 4, then an error: the merge hands on
	// what sorts before the failed read and nothing after it.
	boom := errors.New("boom")
	calls := 0
	failing := func() (int, bool, error) {
		if calls++; calls == 3 {
			return 0, false, boom
		}
		return 2 * calls, true, nil
	}
	got, err := merge(from(1, 3, 5, 7), failing)
	if !errors.Is(err, boom) {
		t.Fatalf("merge over a failing source returned %v, want %v", err, boom)
	}
	if want := []int{1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("merge over a failing source handed on %v, want %v", got, want)
	}
}

// TestSpillFileRoundTrip writes across the memory limit, reads back twice,
// and verify-copies, for a spill that stays in memory and ones that move to
// disk at the first byte and partway through.
func TestSpillFileRoundTrip(t *testing.T) {
	for _, limit := range []int64{0, 50 << 10, 1 << 30} {
		dir := t.TempDir()
		sf := NewSpillFile(dir, "payload-*.spill", limit)
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
			t.Fatalf("limit %d: Len %d, want %d", limit, sf.Len(), want.Len())
		}
		files, _ := filepath.Glob(filepath.Join(dir, "payload-*"))
		if onDisk := int64(want.Len()) > limit; (len(files) == 1) != onDisk {
			t.Fatalf("limit %d: spill files %v, want one on disk: %v", limit, files, onDisk)
		}
		for pass := 0; pass < 2; pass++ {
			var got bytes.Buffer
			if err := sf.VerifyCopy(&got); err != nil {
				t.Fatalf("limit %d pass %d: %v", limit, pass, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("limit %d pass %d: copy differs", limit, pass)
			}
			rd, err := sf.Reader()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := io.ReadAll(rd); err != nil || !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("limit %d pass %d: Reader differs (err %v)", limit, pass, err)
			}
		}
		if err := sf.Remove(); err != nil {
			t.Fatal(err)
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "payload-*")); len(files) != 0 {
			t.Fatalf("limit %d: files left after Remove: %v", limit, files)
		}
	}
}

// TestSpillFileDetectsRot flips a byte on disk after writing; VerifyCopy and
// a Reader must refuse to pass the rotted bytes through silently.
func TestSpillFileDetectsRot(t *testing.T) {
	dir := t.TempDir()
	sf := NewSpillFile(dir, "payload-*.spill", 1024)
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
	rd, err := sf.Reader()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(rd); err == nil {
		t.Fatal("Reader passed rotted bytes")
	}
}

// TestSpillFileWriteString: WriteString stores what Write([]byte(s))
// does, in memory and spilled: the same bytes and, on disk, the same
// digest, with pieces longer than the file writer's buffer among them; and
// rot in a spill written by WriteString is still caught.
func TestSpillFileWriteString(t *testing.T) {
	rng := stats.NewRNG(11)
	var pieces []string
	for i := 0; i < 200; i++ {
		n := rng.Intn(3000)
		if i%50 == 7 {
			n = 150 << 10
		}
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		pieces = append(pieces, string(b))
	}
	for _, limit := range []int64{0, 50 << 10, 1 << 30} {
		dir := t.TempDir()
		viaBytes := NewSpillFile(dir, "bytes-*.spill", limit)
		viaString := NewSpillFile(dir, "string-*.spill", limit)
		for _, p := range pieces {
			if _, err := viaBytes.Write([]byte(p)); err != nil {
				t.Fatal(err)
			}
			if n, err := viaString.WriteString(p); err != nil || n != len(p) {
				t.Fatalf("limit %d: WriteString = %d, %v; want %d", limit, n, err, len(p))
			}
		}
		var want, got bytes.Buffer
		if err := viaBytes.VerifyCopy(&want); err != nil {
			t.Fatal(err)
		}
		if err := viaString.VerifyCopy(&got); err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) || viaString.Len() != viaBytes.Len() {
			t.Fatalf("limit %d: WriteString stored %d bytes, Write %d, or they differ", limit, viaString.Len(), viaBytes.Len())
		}
		if onDisk := viaString.f != nil; onDisk != (limit < int64(want.Len())) {
			t.Fatalf("limit %d: on disk %v", limit, onDisk)
		} else if onDisk && !bytes.Equal(viaString.h.Sum(nil), viaBytes.h.Sum(nil)) {
			t.Fatalf("limit %d: WriteString's digest differs from Write's", limit)
		}
		viaBytes.Remove()
		viaString.Remove()
	}

	dir := t.TempDir()
	sf := NewSpillFile(dir, "rot-*.spill", 1024)
	defer sf.Remove()
	for _, p := range pieces[:20] {
		if _, err := sf.WriteString(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := sf.Seal(); err != nil {
		t.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "rot-*"))
	if len(paths) != 1 {
		t.Fatalf("want one spill file, got %v", paths)
	}
	rewrite(t, paths[0], func(b []byte) []byte { b[len(b)/2] ^= 1; return b })
	if err := sf.VerifyCopy(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("rotted WriteString spill: err = %v, want digest mismatch", err)
	}
}

// TestSpillFileWriteBlock: a spill in memory keeps a written block as is,
// and later writes do not reach into its spare capacity; a spill past its
// limit writes the block through like Write. Either way it reads back
// what was written.
func TestSpillFileWriteBlock(t *testing.T) {
	for _, limit := range []int64{0, 1 << 20} {
		dir := t.TempDir()
		sf := NewSpillFile(dir, "block-*.spill", limit)
		block := make([]byte, 100, 200)
		for i := range block {
			block[i] = byte(i)
		}
		if _, err := sf.Write([]byte("head")); err != nil {
			t.Fatal(err)
		}
		if _, err := sf.WriteBlock(block); err != nil {
			t.Fatal(err)
		}
		if _, err := sf.Write([]byte("tail")); err != nil {
			t.Fatal(err)
		}
		if limit > 0 {
			if len(sf.mem) != 3 || &sf.mem[1][0] != &block[0] {
				t.Fatalf("in memory: the block was copied, blocks %d", len(sf.mem))
			}
			if spare := block[100:200]; !bytes.Equal(spare, make([]byte, 100)) {
				t.Fatal("a later write reached into the block's spare capacity")
			}
		}
		want := append(append([]byte("head"), block...), "tail"...)
		var got bytes.Buffer
		if err := sf.VerifyCopy(&got); err != nil || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("limit %d: read back %q, want %q (err %v)", limit, got.Bytes(), want, err)
		}
		sf.Remove()
	}
}

// TestReadEnd: a reader that has taken every record is at the spill's end,
// where ReadEnd checks the digest; a record left unread is an error, and so
// is rot in the records already handed out.
func TestReadEnd(t *testing.T) {
	dir := t.TempDir()
	sf := NewSpillFile(dir, "end-*.spill", 0)
	defer sf.Remove()
	if _, err := sf.Write(bytes.Repeat([]byte("record"), 100)); err != nil {
		t.Fatal(err)
	}
	if err := sf.Seal(); err != nil {
		t.Fatal(err)
	}
	readEnd := func(records int) error {
		rd, err := sf.Reader()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(rd, make([]byte, 6*records)); err != nil {
			t.Fatal(err)
		}
		return ReadEnd(rd)
	}
	if err := readEnd(100); err != nil {
		t.Fatalf("at the end: %v", err)
	}
	if err := readEnd(99); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("one record short of the end: err = %v, want trailing bytes", err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "end-*"))
	if len(paths) != 1 {
		t.Fatalf("want one spill file, got %v", paths)
	}
	rewrite(t, paths[0], func(b []byte) []byte { b[10] ^= 1; return b })
	if err := readEnd(100); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("rotted records: err = %v, want digest mismatch", err)
	}
}

// TestSpillFileSeal: a sealed spill, in memory or on disk, reads back every
// byte written before the seal — on disk without any Reader having flushed
// it first — and refuses further writes.
func TestSpillFileSeal(t *testing.T) {
	for _, limit := range []int64{0, 1 << 20} {
		dir := t.TempDir()
		sf := NewSpillFile(dir, "sealed-*.spill", limit)
		defer sf.Remove()
		want := bytes.Repeat([]byte("sealed "), 1000)
		if _, err := sf.Write(want); err != nil {
			t.Fatal(err)
		}
		if err := sf.Seal(); err != nil {
			t.Fatal(err)
		}
		if paths, _ := filepath.Glob(filepath.Join(dir, "sealed-*")); limit == 0 {
			if len(paths) != 1 {
				t.Fatalf("limit 0: want one spill file, got %v", paths)
			}
			if b, err := os.ReadFile(paths[0]); err != nil || !bytes.Equal(b, want) {
				t.Fatalf("limit 0: file holds %d bytes after Seal, want all %d flushed (err %v)", len(b), len(want), err)
			}
		}
		if _, err := sf.Write([]byte("late")); err == nil {
			t.Fatalf("limit %d: write after Seal accepted", limit)
		}
		var got bytes.Buffer
		if err := sf.VerifyCopy(&got); err != nil || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("limit %d: sealed spill reads back %d bytes, want %d (err %v)", limit, got.Len(), len(want), err)
		}
	}
}

// TestRadixSortMatchesByteOrder checks the in-place run sort against a
// comparison sort over odd and even record widths and input shapes: shared
// high bytes (skipped positions) with duplicates, fully random bytes, and
// all-equal, already-sorted, reversed and two-valued records, at sizes on
// both sides of the insertion cutoff.
func TestRadixSortMatchesByteOrder(t *testing.T) {
	rng := stats.NewRNG(3)
	shapes := []struct {
		name string
		fill func(buf []byte, size int)
	}{
		{"low-half", func(buf []byte, size int) {
			for i := range buf {
				if i%size >= size/2 { // the high half stays zero
					buf[i] = byte(rng.Intn(7))
				}
			}
		}},
		{"random", func(buf []byte, size int) {
			for i := range buf {
				buf[i] = byte(rng.Intn(256))
			}
		}},
		{"all-equal", func(buf []byte, size int) {
			for i := range buf {
				buf[i] = byte(i%size) * 37
			}
		}},
		{"sorted", func(buf []byte, size int) { fillCounting(buf, size, false) }},
		{"reversed", func(buf []byte, size int) { fillCounting(buf, size, true) }},
		{"two-valued", func(buf []byte, size int) {
			for i := 0; i < len(buf); i += size {
				v := byte(rng.Intn(2)) * 0x81
				for j := i; j < i+size; j++ {
					buf[j] = v
				}
			}
		}},
	}
	for _, size := range []int{1, 5, 8, 12, 13} {
		for _, shape := range shapes {
			for _, n := range []int{0, 1, 2, insertionMax, insertionMax + 1, 1000, 5000} {
				buf := make([]byte, n*size)
				shape.fill(buf, size)
				want := make([][]byte, n)
				for i := range want {
					want[i] = append([]byte(nil), buf[i*size:(i+1)*size]...)
				}
				sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })
				radixSort(buf, size, 0)
				for i := range want {
					if got := buf[i*size : (i+1)*size]; !bytes.Equal(got, want[i]) {
						t.Fatalf("size %d %s n %d: record %d = %x, want %x", size, shape.name, n, i, got, want[i])
					}
				}
			}
		}
	}
}

// fillCounting fills buf with size-byte records counting up from zero in
// big-endian order, or down to zero when reversed.
func fillCounting(buf []byte, size int, reversed bool) {
	n := len(buf) / size
	for r := 0; r < n; r++ {
		v := uint64(r)
		if reversed {
			v = uint64(n - 1 - r)
		}
		for j := size - 1; j >= 0; j-- {
			buf[r*size+j] = byte(v)
			v >>= 8
		}
	}
}

// BenchmarkSorterSpilledMerge sorts 2^18 12-byte records at a budget that
// makes the merge fan-in 24 (23 spilled runs and the remainder), the
// snapshot sorters' fan-in in a DefaultConfig streamed build at a 2 MiB
// budget, and merges them back: Add with every spill, then Merge.
func BenchmarkSorterSpilledMerge(b *testing.B) {
	const n, runs = 1 << 18, 24
	rng := stats.NewRNG(5)
	keys := make([][12]byte, n)
	for i := range keys {
		binary.BigEndian.PutUint32(keys[i][:], rng.Uint32())
		binary.BigEndian.PutUint64(keys[i][4:], rng.Uint64())
	}
	cfg := Config[[12]byte]{
		Size:      12,
		Encode:    func(dst []byte, r [12]byte) { copy(dst, r[:]) },
		Decode:    func(src []byte) [12]byte { return [12]byte(src) },
		MemBudget: n * 12 / runs,
		Dir:       b.TempDir(),
	}
	b.SetBytes(n * 12)
	for i := 0; i < b.N; i++ {
		s, err := NewSorter(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			if err := s.Add(k); err != nil {
				b.Fatal(err)
			}
		}
		if s.FanIn() != runs {
			b.Fatalf("merge fan-in %d, want %d", s.FanIn(), runs)
		}
		var last [12]byte
		if err := s.Merge(func(r [12]byte) error {
			if bytes.Compare(r[:], last[:]) < 0 {
				return errors.New("merge out of order")
			}
			last = r
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
