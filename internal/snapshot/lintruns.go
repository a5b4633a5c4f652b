package snapshot

// Sorted finding runs: the streamed build lints certificates in CertID
// order, but the findings column is in fingerprint order. LintRuns bridges
// the two inside a memory budget the way extsort.Sorter does for the v3
// index records, for records of variable width: each certificate's findings
// are encoded into a run buffer until the buffer fills its budget, then the
// buffer is sorted by fingerprint and spilled as one run, an
// extsort.SpillFile on disk. Merge k-way merges the runs and the in-memory
// remainder back into one ascending stream, reading every run sequentially
// through a 4 KiB buffer of its own, so the fan-in is the total findings
// size over the budget, whatever the parse batch.
//
// Run record layout (integers little-endian); a run is its records in
// ascending fingerprint order, checksummed by its SpillFile:
//
//	fp        [32]byte
//	count     uint32   findings that follow, at most the lint-table size
//	count ×   lintIdx uint32 (< lint-table size), detailLen uint32
//	          (<= maxLintColDetail), detail bytes
//
// The lint ID, version and severity come back from the column writer's lint
// table; Add has checked each finding against it before encoding.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"securepki/internal/certlint"
	"securepki/internal/extsort"
	"securepki/internal/x509lite"
)

// lintRecHead is a run record's fixed part: fingerprint and finding count.
const lintRecHead = 32 + 4

// LintRuns holds one corpus's findings on their way to a LintColumnWriter.
// Not safe for concurrent use.
type LintRuns struct {
	lw    *LintColumnWriter
	dir   string
	limit int64

	buf   []byte     // the run being filled: encoded records
	spans []lintSpan // its records, in buf
	runs  []lintRun  // spilled runs, in spill order

	err error
}

// lintSpan locates one record in the run buffer; lintSpanSize is what it
// costs there, counted against the budget with the record.
type lintSpan struct{ off, end int }

const lintSpanSize = 16

// lintRun is one spilled run and how many records it holds.
type lintRun struct {
	spill *extsort.SpillFile
	count int
}

// NewLintRuns returns an empty collector for lw's column whose run buffer,
// record bookkeeping included, holds up to budget bytes (<= 0 means
// extsort.DefaultMemBudget) before it spills to dir ("" means the OS temp
// dir).
func NewLintRuns(lw *LintColumnWriter, dir string, budget int64) *LintRuns {
	if budget <= 0 {
		budget = extsort.DefaultMemBudget
	}
	return &LintRuns{lw: lw, dir: dir, limit: budget}
}

// Add takes a batch of certificates' findings in any order. Each finding is
// checked against the column's lint table first, so a run never holds one
// the column would refuse. Errors are sticky.
func (lr *LintRuns) Add(results []certlint.CertFindings) error {
	if lr.err != nil {
		return lr.err
	}
	for _, cf := range results {
		if err := lr.lw.checkFindings(cf); err != nil {
			lr.err = err
			return err
		}
		n := lintRecHead
		for _, f := range cf.Findings {
			n += 8 + len(f.Detail)
		}
		lr.reserve(n)
		off := len(lr.buf)
		lr.buf = append(lr.buf, cf.Fingerprint[:]...)
		lr.buf = binary.LittleEndian.AppendUint32(lr.buf, uint32(len(cf.Findings)))
		for _, f := range cf.Findings {
			lr.buf = binary.LittleEndian.AppendUint32(lr.buf, uint32(lr.lw.idx[f.LintID]))
			lr.buf = binary.LittleEndian.AppendUint32(lr.buf, uint32(len(f.Detail)))
			lr.buf = append(lr.buf, f.Detail...)
		}
		lr.spans = append(lr.spans, lintSpan{off, len(lr.buf)})
		if int64(len(lr.buf)+len(lr.spans)*lintSpanSize) >= lr.limit {
			if err := lr.spill(); err != nil {
				lr.err = err
				return err
			}
		}
	}
	return nil
}

// reserve makes room for n more bytes in the run buffer. Capacity doubles
// but stops at the budget, or at exactly the room needed past it, so the
// buffer never holds much more than its budget.
func (lr *LintRuns) reserve(n int) {
	if cap(lr.buf)-len(lr.buf) >= n {
		return
	}
	c := max(2*cap(lr.buf), len(lr.buf)+n, 4<<10)
	if int64(c) > lr.limit {
		c = int(max(lr.limit, int64(len(lr.buf)+n)))
	}
	lr.buf = slices.Grow(lr.buf, c-len(lr.buf))
}

// Runs returns how many runs have spilled to disk.
func (lr *LintRuns) Runs() int { return len(lr.runs) }

// sortSpans orders the run buffer's records by fingerprint.
func (lr *LintRuns) sortSpans() {
	slices.SortFunc(lr.spans, func(a, b lintSpan) int {
		return bytes.Compare(lr.buf[a.off:a.off+32], lr.buf[b.off:b.off+32])
	})
}

// spill writes the run buffer as one sorted run on disk and empties it,
// keeping its capacity for the next run.
func (lr *LintRuns) spill() error {
	lr.sortSpans()
	run := extsort.NewSpillFile(lr.dir, "lint-run-*.spill", 0)
	lr.runs = append(lr.runs, lintRun{spill: run, count: len(lr.spans)})
	for _, sp := range lr.spans {
		if _, err := run.Write(lr.buf[sp.off:sp.end]); err != nil {
			return err
		}
	}
	lr.buf, lr.spans = lr.buf[:0], lr.spans[:0]
	return run.Seal()
}

// Merge hands every certificate's findings to fn in ascending fingerprint
// order: the spilled runs and the sorted remainder, k-way merged by
// extsort.Merge. A corrupt run fails with an explicit error, at the latest
// when its checksum is checked as it drains, so fn may have seen records of
// a merge that fails; a LintColumnWriter emits nothing before Finish, which
// is what makes that safe. Fingerprints are unique across a corpus, so
// valid runs never tie; the column writer rejects a duplicate.
func (lr *LintRuns) Merge(fn func(certlint.CertFindings) error) error {
	if lr.err != nil {
		return lr.err
	}
	lr.sortSpans()
	srcs := make([]func() (certlint.CertFindings, bool, error), 0, len(lr.runs)+1)
	for i, run := range lr.runs {
		rd, err := run.spill.Reader()
		if err != nil {
			return err
		}
		// Records come off a small buffer of their own; the spill reader
		// holds none.
		br := bufio.NewReaderSize(rd, 4<<10)
		srcs = append(srcs, (&lintSrc{lints: lr.lw.lints, name: fmt.Sprintf("lint run %d", i), r: br, count: run.count}).next)
	}
	remainder := &spanReader{buf: lr.buf, spans: lr.spans}
	srcs = append(srcs, (&lintSrc{lints: lr.lw.lints, name: "lint run buffer", r: remainder, count: len(lr.spans)}).next)
	return extsort.Merge(srcs, func(a, b certlint.CertFindings) bool {
		return bytes.Compare(a.Fingerprint[:], b.Fingerprint[:]) < 0
	}, fn)
}

// Close removes every spilled run and drops the run buffer. Safe to call
// more than once.
func (lr *LintRuns) Close() error {
	var first error
	for _, run := range lr.runs {
		if err := run.spill.Remove(); err != nil && first == nil {
			first = err
		}
	}
	lr.runs, lr.buf, lr.spans = nil, nil, nil
	return first
}

// lintSrc is one sorted source of the merge: a spilled run, read through
// its SpillFile reader, or the sorted run buffer.
type lintSrc struct {
	lints []certlint.LinterInfo
	name  string
	r     io.Reader

	count, read int
	detail      []byte // reused for each finding's detail
}

// next decodes the source's following record; false means the source is
// drained, and for a spilled run that its checksum held.
func (s *lintSrc) next() (certlint.CertFindings, bool, error) {
	if s.read == s.count {
		if err := extsort.ReadEnd(s.r); err != nil {
			return certlint.CertFindings{}, false, fmt.Errorf("snapshot: %s: %w", s.name, err)
		}
		return certlint.CertFindings{}, false, nil
	}
	cf, err := s.decode()
	if err != nil {
		return cf, false, fmt.Errorf("snapshot: %s record %d: %w", s.name, s.read, err)
	}
	s.read++
	return cf, true, nil
}

// spanReader reads the run buffer's records in the order of spans.
type spanReader struct {
	buf   []byte
	spans []lintSpan
	rest  []byte // of the record being read
}

func (sr *spanReader) Read(p []byte) (int, error) {
	for len(sr.rest) == 0 {
		if len(sr.spans) == 0 {
			return 0, io.EOF
		}
		sr.rest = sr.buf[sr.spans[0].off:sr.spans[0].end]
		sr.spans = sr.spans[1:]
	}
	n := copy(p, sr.rest)
	sr.rest = sr.rest[n:]
	return n, nil
}

// decode reads one run record, checking every count and index against the
// lint table and the detail cap before it allocates.
func (s *lintSrc) decode() (certlint.CertFindings, error) {
	r := s.r
	var head [lintRecHead]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return certlint.CertFindings{}, fmt.Errorf("truncated: %w", err)
	}
	cf := certlint.CertFindings{Fingerprint: x509lite.Fingerprint(head[:32])}
	count := binary.LittleEndian.Uint32(head[32:])
	if uint64(count) > uint64(len(s.lints)) {
		return cf, fmt.Errorf("%d findings for %d linters", count, len(s.lints))
	}
	if count > 0 {
		cf.Findings = make([]certlint.Finding, count)
	}
	for i := range cf.Findings {
		var fh [8]byte
		if _, err := io.ReadFull(r, fh[:]); err != nil {
			return cf, fmt.Errorf("truncated: %w", err)
		}
		li := binary.LittleEndian.Uint32(fh[:])
		dlen := binary.LittleEndian.Uint32(fh[4:])
		if uint64(li) >= uint64(len(s.lints)) {
			return cf, fmt.Errorf("finding references lint %d of %d", li, len(s.lints))
		}
		if dlen > maxLintColDetail {
			return cf, fmt.Errorf("detail %d bytes, cap %d", dlen, maxLintColDetail)
		}
		s.detail = slices.Grow(s.detail[:0], int(dlen))[:dlen]
		if _, err := io.ReadFull(r, s.detail); err != nil {
			return cf, fmt.Errorf("truncated: %w", err)
		}
		info := s.lints[li]
		cf.Findings[i] = certlint.Finding{LintID: info.ID, Version: info.Version, Severity: info.Severity, Detail: string(s.detail)}
	}
	return cf, nil
}
