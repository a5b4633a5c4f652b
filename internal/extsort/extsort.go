// Package extsort is the external-merge substrate of the snapshot writer:
// sorters over fixed-width records that buffer rows up to a memory budget,
// spill each sorted buffer as one run when the budget is hit, and k-way
// merge every run back into one ordered stream. Runs are SpillFiles: the
// memory-first, checksummed append-only files that are the streamed build's
// only spill file, carrying scan chunks and byte payloads as well. A SpillFile reader holds no buffer, so each
// caller sizes its own: Merge reads every run through 4 KiB, which is all a
// spilled run costs outside the memory budget. The k-way merge itself
// (Merge) is generic, so sorters of other records share it.
//
// Order contract: a record's encoding is its sort key. Records come back in
// ascending byte order of their encodings, so a multi-field order is a
// big-endian layout with the most significant field first. Records with
// equal encodings are identical, so no tie-break exists to get wrong, and
// the merged stream is a pure function of the multiset of records handed to
// Add — never of the memory budget, the spill directory, or how many runs
// happened to spill. Ordering by bytes is also what lets the run sort be a
// radix sort instead of a comparison sort: an MSD radix sort that works in
// place, so a sorter's records are the only buffer it holds.
//
// Distrust discipline (the snapshot package's rules): every spilled run is a
// sealed SpillFile, whose SHA-256, taken as the run is written, is checked
// as the run drains, so a truncated or bit-flipped spill surfaces as an
// explicit error from Merge, never as a silently wrong index.
package extsort

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
)

// Config parameterises a Sorter. Size, Encode and Decode are mandatory; the
// zero values of the rest are usable defaults.
type Config[R any] struct {
	// Size is the fixed encoded width of one record, in bytes.
	Size int
	// Encode writes r into dst, which is exactly Size bytes. The encoding is
	// also the sort order (see the package doc).
	Encode func(dst []byte, r R)
	// Decode reads one record back from src (exactly Size bytes).
	Decode func(src []byte) R
	// MemBudget caps the in-memory buffer, in encoded bytes; when an Add
	// would hold more than this, the buffer spills as one sorted run. The
	// run sort works in place, so the buffer is all a sorter holds in
	// memory besides the merge's read buffers. <= 0 means DefaultMemBudget.
	MemBudget int64
	// Dir is where run files are created ("" means the OS temp dir).
	Dir string
}

// DefaultMemBudget is the per-sorter buffer cap when none is configured.
const DefaultMemBudget = 256 << 20

// Sorter accumulates records, spilling sorted runs to disk past the memory
// budget, and streams them back in order via Merge. Not safe for concurrent
// use.
type Sorter[R any] struct {
	cfg  Config[R]
	buf  []byte // encoded records, Size bytes each
	runs []*SpillFile
	err  error
}

// NewSorter validates the config and returns an empty sorter.
func NewSorter[R any](cfg Config[R]) (*Sorter[R], error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("extsort: record size %d, want > 0", cfg.Size)
	}
	if cfg.Encode == nil || cfg.Decode == nil {
		return nil, fmt.Errorf("extsort: config needs Encode and Decode")
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = DefaultMemBudget
	}
	return &Sorter[R]{cfg: cfg}, nil
}

// Add appends one record, spilling the buffer as a sorted run if the memory
// budget is exceeded. Errors are sticky: once a spill fails, every further
// Add and the final Merge report it.
func (s *Sorter[R]) Add(r R) error {
	if s.err != nil {
		return s.err
	}
	n := len(s.buf)
	if cap(s.buf)-n < s.cfg.Size {
		s.buf = Grow(s.buf, s.cfg.Size, s.cfg.MemBudget)
	}
	s.buf = s.buf[:n+s.cfg.Size]
	s.cfg.Encode(s.buf[n:], r)
	if int64(len(s.buf)) >= s.cfg.MemBudget {
		if err := s.spill(); err != nil {
			s.err = err
			return err
		}
	}
	return nil
}

// Grow reserves buffer room for n more records, up to the memory budget,
// so a caller that knows how many records are coming spares the buffer its
// regrowth.
func (s *Sorter[R]) Grow(n int) {
	size := int64(s.cfg.Size)
	full := (s.cfg.MemBudget + size - 1) / size * size // the length Add spills at
	want := min(int64(len(s.buf))+int64(n)*size, full)
	if int64(cap(s.buf)) < want {
		s.buf = slices.Grow(s.buf, int(want)-len(s.buf))
	}
}

// Runs returns how many sorted runs have spilled to disk. The merge fan-in
// is Runs()+1 when the in-memory remainder is non-empty.
func (s *Sorter[R]) Runs() int { return len(s.runs) }

// SpilledBytes returns how many bytes the spilled runs hold.
func (s *Sorter[R]) SpilledBytes() int64 {
	var n int64
	for _, run := range s.runs {
		n += run.Len()
	}
	return n
}

// FanIn returns the number of sorted sources the next Merge will combine.
func (s *Sorter[R]) FanIn() int {
	n := len(s.runs)
	if len(s.buf) > 0 {
		n++
	}
	return n
}

// spill sorts the buffer and writes it as one run: a SpillFile that goes to
// disk at its first byte and is sealed at once.
func (s *Sorter[R]) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	radixSort(s.buf, s.cfg.Size, 0)
	run := NewSpillFile(s.cfg.Dir, "extsort-run-*.spill", 0)
	s.runs = append(s.runs, run)
	if _, err := run.Write(s.buf); err != nil {
		return err
	}
	s.buf = s.buf[:0]
	return run.Seal()
}

// Grow returns b with room for n more bytes. Capacity doubles but stops at
// limit, or at exactly the room needed once that passes limit, so a buffer
// that grows to its limit leaves about its own size in garbage rather than
// several times it. The sorters and the lint-column writer grow their run
// buffers through it.
func Grow(b []byte, n int, limit int64) []byte {
	need := len(b) + n
	if cap(b) >= need {
		return b
	}
	c := max(2*cap(b), need, 4<<10)
	if int64(c) > limit {
		c = int(max(limit, int64(need)))
	}
	return slices.Grow(b, c-len(b))
}

// insertionMax is the largest bucket radixSort finishes by insertion
// rather than by another radix pass.
const insertionMax = 16

// sweepMin is the smallest bucket, in records, radixSort places by sweep
// rather than by cycle. On the sorter and snapshot-write benchmarks either
// partition alone is slower than the two split here; a cutoff of 1024
// reads the same and one of 16384 slower.
const sweepMin = 4096

// radixSort orders the size-byte records in buf, which agree on their first
// d bytes, by their bytes, in place: an MSD radix sort that partitions the
// records on one byte position at a time, skipping every position on which
// all records of a bucket agree (the high bytes of small IDs), and finishes
// buckets of at most insertionMax records by insertion. Records move by
// swapping, so it allocates nothing.
func radixSort(buf []byte, size, d int) {
	if len(buf)/size <= insertionMax {
		insertionSort(buf, size, d)
		return
	}
	if d = firstDiff(buf, size, d); d == size {
		return
	}
	// vals lists the byte values present, ascending, so a bucket's loops
	// run over its values, not all 256; it is built without a branch.
	var count [256]int
	for i := d; i < len(buf); i += size {
		count[buf[i]]++
	}
	var vals [256]uint8
	k := 0
	for b, c := range count {
		vals[k] = uint8(b)
		k -= (-c) >> 63 // c > 0
	}
	// Bucket v spans [next[v], end[v]); next[v] is where its next unplaced
	// record goes.
	var next, end [256]int
	off := 0
	for _, v := range vals[:k] {
		next[v] = off
		off += count[v] * size
		end[v] = off
	}
	if len(buf) >= sweepMin*size {
		unfinished := vals
		sweep(buf, size, d, &next, &end, unfinished[:k])
	} else {
		cycle(buf, size, d, &next, &end, vals[:k])
	}
	if d+1 == size {
		return
	}
	lo := 0
	for _, v := range vals[:k] {
		n := count[v] * size
		if n > size {
			radixSort(buf[lo:lo+n], size, d+1)
		}
		lo += n
	}
}

// cycle moves every record of buf to its bucket on byte d by following
// cycles: the record at bucket b's next slot moves to its own bucket's next
// slot, the record there takes its place, and so on until one that belongs
// to b arrives. Every record moves at most once.
func cycle(buf []byte, size, d int, next, end *[256]int, vals []uint8) {
	for _, b := range vals {
		for i := next[b]; i < end[b]; i = next[b] {
			v := buf[i+d]
			if v == b {
				next[b] = i + size
				continue
			}
			j := next[v]
			next[v] = j + size
			swapRecords(buf, i, j, size)
		}
	}
}

// sweep moves every record of buf to its bucket on byte d in rounds: each
// round sends every unplaced record of each unfinished bucket (vals, which
// it reorders) to its own bucket's next slot, and the record that comes
// back waits for the next round. The loop does not branch on the data and
// its swaps do not wait on each other, so on large buckets it outruns
// cycle, each of whose swaps waits for the one before.
func sweep(buf []byte, size, d int, next, end *[256]int, vals []uint8) {
	// Once one bucket is unfinished, the records left in it are its own.
	for len(vals) > 1 {
		left := vals[:0]
		for _, b := range vals {
			stop := end[b]
			for i := next[b]; i < stop; i += size {
				v := buf[i+d]
				j := next[v]
				next[v] = j + size
				swapRecords(buf, i, j, size)
			}
			if next[b] < stop {
				left = append(left, b)
			}
		}
		vals = left
	}
}

// firstDiff returns the first byte position from d on at which the records
// of buf do not all agree, or size if they agree everywhere. It compares
// records with the first, which is cheaper than counting a position whose
// bytes are all alike.
func firstDiff(buf []byte, size, d int) int {
	lo, first := size, buf[:size]
	switch size { // the common widths compare as big-endian words
	case 8:
		f := binary.BigEndian.Uint64(first)
		for i := size; i < len(buf) && lo > d; i += size {
			if x := binary.BigEndian.Uint64(buf[i:]) ^ f; x != 0 {
				lo = min(lo, bits.LeadingZeros64(x)/8)
			}
		}
		return lo
	case 12:
		f, g := binary.BigEndian.Uint64(first), binary.BigEndian.Uint32(first[8:])
		for i := size; i < len(buf) && lo > d; i += size {
			if x := binary.BigEndian.Uint64(buf[i:]) ^ f; x != 0 {
				lo = min(lo, bits.LeadingZeros64(x)/8)
			} else if y := binary.BigEndian.Uint32(buf[i+8:]) ^ g; y != 0 {
				lo = min(lo, 8+bits.LeadingZeros32(y)/8)
			}
		}
		return lo
	}
	for i := size; i < len(buf) && lo > d; i += size {
		rec := buf[i : i+size]
		for j := d; j < lo; j++ {
			if rec[j] != first[j] {
				lo = j
				break
			}
		}
	}
	return lo
}

// insertionSort sorts the records of buf, which agree on their first d
// bytes, by insertion.
func insertionSort(buf []byte, size, d int) {
	for i := size; i < len(buf); i += size {
		for j := i; j > 0 && bytes.Compare(buf[j+d:j+size], buf[j-size+d:j]) < 0; j -= size {
			swapRecords(buf, j-size, j, size)
		}
	}
}

// swapRecords exchanges the size-byte records at byte offsets i and j. The
// common widths move as fixed-size arrays, without a loop.
func swapRecords(buf []byte, i, j, size int) {
	switch size {
	case 8:
		a, b := (*[8]byte)(buf[i:]), (*[8]byte)(buf[j:])
		*a, *b = *b, *a
	case 12:
		a, b := (*[12]byte)(buf[i:]), (*[12]byte)(buf[j:])
		*a, *b = *b, *a
	default:
		a, b := buf[i:i+size], buf[j:j+size]
		for k := range a {
			a[k], b[k] = b[k], a[k]
		}
	}
}

// Merge sorts the in-memory remainder and streams every record, across all
// runs, to fn in encoding order. Records already handed to fn before an
// error must be discarded by the caller: a corrupt run is only provably
// corrupt once it has drained and its digest is checked, so Merge
// guarantees detection, not early abort. Merge consumes the sorter; Close
// releases the runs afterwards.
func (s *Sorter[R]) Merge(fn func(r R) error) error {
	if s.err != nil {
		return s.err
	}
	radixSort(s.buf, s.cfg.Size, 0)
	size := s.cfg.Size
	if len(s.runs) == 0 { // nothing spilled: the sorted buffer is the stream, without the heap
		for i := 0; i < len(s.buf); i += size {
			if err := fn(s.cfg.Decode(s.buf[i : i+size])); err != nil {
				return err
			}
		}
		return nil
	}
	srcs := make([]func() ([]byte, bool, error), 0, len(s.runs)+1)
	for i, run := range s.runs {
		rd, err := run.Reader()
		if err != nil {
			return err
		}
		// Records come off a small buffer of their own, so the run's
		// digest is taken over whole blocks, not record by record.
		br := bufio.NewReaderSize(rd, 4<<10)
		rec := make([]byte, size)
		srcs = append(srcs, func() ([]byte, bool, error) {
			if _, err := io.ReadFull(br, rec); err != nil {
				if err == io.EOF {
					return nil, false, nil
				}
				return nil, false, fmt.Errorf("extsort: run %d: %w", i, err)
			}
			return rec, true, nil
		})
	}
	rest := s.buf
	srcs = append(srcs, func() ([]byte, bool, error) {
		if len(rest) == 0 {
			return nil, false, nil
		}
		rec := rest[:size]
		rest = rest[size:]
		return rec, true, nil
	})
	return Merge(srcs, func(a, b []byte) bool { return bytes.Compare(a, b) < 0 },
		func(rec []byte) error { return fn(s.cfg.Decode(rec)) })
}

// Merge k-way merges sorted sources into fn in the order less defines. Each
// source yields its next record per call, or false once it is drained; a
// record need only stay valid until its source's next call. Which of two
// equal records comes first is unspecified, so records that compare equal
// must be interchangeable. The first error a source or fn returns ends the
// merge and is returned.
func Merge[T any](srcs []func() (T, bool, error), less func(a, b T) bool, fn func(T) error) error {
	type head struct {
		rec  T
		next func() (T, bool, error)
	}
	// A binary min-heap of the live sources, ordered by current record.
	h := make([]*head, 0, len(srcs))
	for _, next := range srcs {
		rec, ok, err := next()
		if err != nil {
			return err
		}
		if ok {
			h = append(h, &head{rec, next})
		}
	}
	down := func(i int) {
		for {
			m := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(h) && less(h[c].rec, h[m].rec) {
					m = c
				}
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		if err := fn(h[0].rec); err != nil {
			return err
		}
		rec, ok, err := h[0].next()
		if err != nil {
			return err
		}
		if ok {
			h[0].rec = rec
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return nil
}

// Close removes every spilled run. Safe to call more than once.
func (s *Sorter[R]) Close() error {
	var first error
	for _, run := range s.runs {
		if err := run.Remove(); err != nil && first == nil {
			first = err
		}
	}
	s.runs = nil
	s.buf = nil
	return first
}
