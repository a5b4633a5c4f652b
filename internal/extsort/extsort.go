// Package extsort is the external-merge substrate of the streaming build
// path: sorters over fixed-width records that buffer rows up to a memory
// budget, spill sorted runs to checksummed temporary shards when the budget
// is hit, and k-way merge every run back into one ordered stream. It also
// provides checksummed append-only spill files for byte payloads that must
// transit disk between a streaming producer and the final output copy.
//
// Determinism contract: the merged stream is a pure function of the record
// sequence handed to Add — never of the memory budget, the spill directory,
// or how many runs happened to spill. Sorting is stable and the merge breaks
// ties by run age (earlier-spilled runs first, the in-memory remainder
// last), so records that compare equal come out in insertion order. Callers
// exploit this: the scanstore index feeds sightings in scan-major order and
// gets per-certificate sighting lists back in exactly the order the
// in-memory build would produce.
//
// Distrust discipline (the snapshot package's rules): every run shard
// carries a magic, its record width, an exact record count and a trailing
// SHA-256 over header and payload. Readers reject width/size mismatches
// before allocating and verify the digest as the run drains, so a truncated
// or bit-flipped spill surfaces as an explicit error from Merge, never as a
// silently wrong index.
package extsort

import (
	"fmt"
	"sort"
)

// Config parameterises a Sorter. Size, Encode, Decode and Less are
// mandatory; the zero values of the rest are usable defaults.
type Config[R any] struct {
	// Size is the fixed encoded width of one record, in bytes.
	Size int
	// Encode writes r into dst, which is exactly Size bytes.
	Encode func(dst []byte, r R)
	// Decode reads one record back from src (exactly Size bytes).
	Decode func(src []byte) R
	// Less is the sort order. It must be a strict weak order; ties are
	// broken by insertion order (the sorter is stable end to end).
	Less func(a, b R) bool
	// MemBudget caps the in-memory buffer, in encoded bytes; when an Add
	// would hold more than this, the buffer spills to a sorted run shard.
	// <= 0 means DefaultMemBudget.
	MemBudget int64
	// Dir is where run shards are created ("" means the OS temp dir).
	Dir string
}

// DefaultMemBudget is the per-sorter buffer cap when none is configured.
const DefaultMemBudget = 256 << 20

// Sorter accumulates records, spilling sorted runs to disk past the memory
// budget, and streams them back in order via Merge. Not safe for concurrent
// use.
type Sorter[R any] struct {
	cfg  Config[R]
	buf  []R
	runs []*runShard
	err  error
}

// NewSorter validates the config and returns an empty sorter.
func NewSorter[R any](cfg Config[R]) (*Sorter[R], error) {
	if cfg.Size <= 0 || cfg.Size > maxRecordSize {
		return nil, fmt.Errorf("extsort: record size %d outside (0, %d]", cfg.Size, maxRecordSize)
	}
	if cfg.Encode == nil || cfg.Decode == nil || cfg.Less == nil {
		return nil, fmt.Errorf("extsort: config needs Encode, Decode and Less")
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
	s.buf = append(s.buf, r)
	if int64(len(s.buf))*int64(s.cfg.Size) >= s.cfg.MemBudget {
		if err := s.spill(); err != nil {
			s.err = err
			return err
		}
	}
	return nil
}

// Runs returns how many sorted runs have spilled to disk. The merge fan-in
// is Runs()+1 when the in-memory remainder is non-empty.
func (s *Sorter[R]) Runs() int { return len(s.runs) }

// FanIn returns the number of sorted sources the next Merge will combine.
func (s *Sorter[R]) FanIn() int {
	n := len(s.runs)
	if len(s.buf) > 0 {
		n++
	}
	return n
}

func (s *Sorter[R]) sortBuf() {
	less := s.cfg.Less
	buf := s.buf
	sort.SliceStable(buf, func(i, j int) bool { return less(buf[i], buf[j]) })
}

// spill sorts the buffer and writes it as one run shard.
func (s *Sorter[R]) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	s.sortBuf()
	run, err := writeRunShard(s.cfg.Dir, s.cfg.Size, s.cfg.Encode, s.buf)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	s.buf = s.buf[:0]
	return nil
}

// mergeSrc is one sorted source feeding the merge: a run shard reader or
// the in-memory remainder.
type mergeSrc[R any] struct {
	next func() (R, bool, error)
}

// Merge sorts the in-memory remainder and streams every record, across all
// runs, to fn in (Less, insertion) order. Records already handed to fn
// before an error must be discarded by the caller: a corrupt run shard is
// only provably corrupt once its digest trailer is reached, so Merge
// guarantees detection, not early abort. Merge consumes the sorter; Close
// releases the run shards afterwards.
func (s *Sorter[R]) Merge(fn func(r R) error) error {
	if s.err != nil {
		return s.err
	}
	s.sortBuf()

	srcs := make([]mergeSrc[R], 0, len(s.runs)+1)
	for _, run := range s.runs {
		rd, err := newRunReader(run, s.cfg.Size, s.cfg.Decode)
		if err != nil {
			return err
		}
		srcs = append(srcs, mergeSrc[R]{next: rd.next})
	}
	buf, pos := s.buf, 0
	srcs = append(srcs, mergeSrc[R]{next: func() (R, bool, error) {
		var zero R
		if pos >= len(buf) {
			return zero, false, nil
		}
		r := buf[pos]
		pos++
		return r, true, nil
	}})

	h := newMergeHeap[R](s.cfg.Less)
	for i, src := range srcs {
		r, ok, err := src.next()
		if err != nil {
			return err
		}
		if ok {
			h.push(mergeItem[R]{rec: r, src: i})
		}
	}
	for h.len() > 0 {
		it := h.pop()
		if err := fn(it.rec); err != nil {
			return err
		}
		r, ok, err := srcs[it.src].next()
		if err != nil {
			return err
		}
		if ok {
			h.push(mergeItem[R]{rec: r, src: it.src})
		}
	}
	return nil
}

// Close removes every spilled run shard. Safe to call more than once.
func (s *Sorter[R]) Close() error {
	var first error
	for _, run := range s.runs {
		if err := run.remove(); err != nil && first == nil {
			first = err
		}
	}
	s.runs = nil
	s.buf = nil
	return first
}

// mergeItem pairs a record with the index of the source it came from; the
// source index is the tie-break that keeps the merge stable.
type mergeItem[R any] struct {
	rec R
	src int
}

// mergeHeap is a binary min-heap over (Less, src). Hand-rolled rather than
// container/heap to keep the hot pop/push path free of interface calls.
type mergeHeap[R any] struct {
	less  func(a, b R) bool
	items []mergeItem[R]
}

func newMergeHeap[R any](less func(a, b R) bool) *mergeHeap[R] {
	return &mergeHeap[R]{less: less}
}

func (h *mergeHeap[R]) len() int { return len(h.items) }

func (h *mergeHeap[R]) before(a, b mergeItem[R]) bool {
	if h.less(a.rec, b.rec) {
		return true
	}
	if h.less(b.rec, a.rec) {
		return false
	}
	return a.src < b.src
}

func (h *mergeHeap[R]) push(it mergeItem[R]) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *mergeHeap[R]) pop() mergeItem[R] {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.before(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < len(h.items) && h.before(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}

// MergeSorted k-way merges in-memory sorted runs into fn, stable by run
// index then in-run order — the in-core counterpart of Sorter.Merge, used
// where chunks were sorted in parallel and only the combine must be serial.
// Every run must already be sorted by less.
func MergeSorted[R any](runs [][]R, less func(a, b R) bool, fn func(r R)) {
	h := newMergeHeap[R](less)
	pos := make([]int, len(runs))
	for i, run := range runs {
		if len(run) > 0 {
			h.push(mergeItem[R]{rec: run[0], src: i})
			pos[i] = 1
		}
	}
	for h.len() > 0 {
		it := h.pop()
		fn(it.rec)
		if p := pos[it.src]; p < len(runs[it.src]) {
			h.push(mergeItem[R]{rec: runs[it.src][p], src: it.src})
			pos[it.src] = p + 1
		}
	}
}
