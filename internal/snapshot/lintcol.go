package snapshot

// Lint findings column: a checksummed sidecar that persists one corpus lint
// run next to a snapshot, so analyze and certquery can answer "what did the
// registry find for this certificate?" without re-linting.
//
// The column is a separate file rather than a sixth v3 section because the
// findings are derived data with their own lifecycle: relinting after a
// registry change must not rewrite (or invalidate the checksums of) the
// measurement snapshot itself. The encoding discipline is exactly the v3
// index sections': fixed-width sorted keys, tiled postings, explicit caps
// checked before any allocation, SHA-256 over header and body, and an exact
// file-size requirement — a hostile column can be rejected, never trusted.
//
// Layout (integers little-endian):
//
//	magic      [8]byte  "SPKILC01"
//	certCount  uint64
//	findCount  uint64
//	lintCount  uint32
//	reserved   uint32   must be zero
//	lintTabLen uint64   lint-table blob byte length
//	detailLen  uint64   detail blob byte length
//	headerSum  [32]byte SHA-256 of the 48 header bytes above
//	lint table lintCount varint records: idLen uvarint, id bytes,
//	           version uvarint (>= 1), severity byte (< 4) — IDs strictly
//	           ascending, exactly lintTabLen bytes
//	keys       certCount × 16-byte groups after a 32-byte fingerprint:
//	           fp[32], postOff u32, postCount u32 — fingerprints strictly
//	           ascending; groups tile the posting array in order (postOff is
//	           an element index), zero-count groups allowed
//	postings   findCount × 16-byte findings: lintIdx u32, severity u32,
//	           detailOff u32, detailLen u32 — lintIdx strictly ascending
//	           within each group and < lintCount; severity must match the
//	           lint table; details tile the detail blob in posting order
//	details    detailLen bytes of finding detail strings
//	bodySum    [32]byte SHA-256 of lint table ‖ keys ‖ postings ‖ details
//
// The file ends exactly after bodySum; trailing bytes are an error.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"securepki/internal/certlint"
	"securepki/internal/extsort"
	"securepki/internal/x509lite"
)

// MagicLintColumn opens every lint findings column.
const MagicLintColumn = "SPKILC01"

// lintColHeaderLen is magic through detailLen, the bytes headerSum covers.
const lintColHeaderLen = 8 + 2*8 + 2*4 + 2*8

// lintColKeyEntry and lintColPostEntry are the fixed widths of one key-array
// and one posting-array element.
const (
	lintColKeyEntry  = 40
	lintColPostEntry = 16
)

// Caps a hostile header must stay under before anything is allocated; the
// lint-table entry caps (ID length, version) are parseLintTable's.
const (
	maxLintColLints    = 4096
	maxLintColID       = 256
	maxLintColVersion  = 1 << 20
	maxLintColTable    = 1 << 20
	maxLintColDetail   = 1 << 16
	maxLintColDetails  = maxIndexBytes
	maxLintColFindings = maxIndexBytes / lintColPostEntry
)

// LintColumn is a validated, loaded findings column. Lookups binary-search
// the key array; nothing is re-derived from certificates.
type LintColumn struct {
	// Lints is the persisted registry identity, in the column's index order
	// (ascending ID).
	Lints []certlint.LinterInfo

	keys    []byte
	posts   []byte
	details []byte
}

// LintColumnWriter is the column's one encoder. Add takes one certificate's
// findings at a time, in strictly ascending fingerprint order, and appends
// them to the key, posting and detail arrays, which are memory-first
// extsort.SpillFiles; Finish writes the column. Add checks everything the
// reader would reject of what a writer controls — order, lint references,
// severities and versions against the lint table, detail sizes and the
// certificate and finding caps — so a rejected finding stops the encode
// before Finish has emitted a byte.
type LintColumnWriter struct {
	lints   []certlint.LinterInfo
	idx     map[string]int
	lintTab []byte

	keys, posts, details *extsort.SpillFile
	certs, finds         uint64
	last                 x509lite.Fingerprint
	entries              []byte // Add's key entry and posting entries, reused

	err error
}

// NewLintColumnWriter validates the lint table — infos must be ID-sorted with
// unique IDs (Registry.Infos's contract) — and returns an empty encoder whose
// three arrays hold up to a third of budget each in memory (<= 0 means
// extsort.DefaultMemBudget) before moving to files in dir ("" means the OS
// temp dir).
func NewLintColumnWriter(infos []certlint.LinterInfo, dir string, budget int64) (*LintColumnWriter, error) {
	if len(infos) > maxLintColLints {
		return nil, fmt.Errorf("snapshot: lint column: %d linters, cap %d", len(infos), maxLintColLints)
	}
	if budget <= 0 {
		budget = extsort.DefaultMemBudget
	}
	lw := &LintColumnWriter{lints: infos, idx: make(map[string]int, len(infos))}
	for i, info := range infos {
		if i > 0 && infos[i-1].ID >= info.ID {
			return nil, fmt.Errorf("snapshot: lint column: linter infos not ID-sorted at %q", info.ID)
		}
		if len(info.ID) == 0 || len(info.ID) > maxLintColID {
			return nil, fmt.Errorf("snapshot: lint column: linter ID %q length %d outside [1, %d]", info.ID, len(info.ID), maxLintColID)
		}
		if info.Version < 1 || info.Version > maxLintColVersion {
			return nil, fmt.Errorf("snapshot: lint column: linter %s version %d", info.ID, info.Version)
		}
		if info.Severity < 0 || int(info.Severity) >= certlint.NumSeverities {
			return nil, fmt.Errorf("snapshot: lint column: linter %s severity %d", info.ID, info.Severity)
		}
		lw.idx[info.ID] = i
		lw.lintTab = binary.AppendUvarint(lw.lintTab, uint64(len(info.ID)))
		lw.lintTab = append(lw.lintTab, info.ID...)
		lw.lintTab = binary.AppendUvarint(lw.lintTab, uint64(info.Version))
		lw.lintTab = append(lw.lintTab, byte(info.Severity))
	}
	if len(lw.lintTab) > maxLintColTable {
		return nil, fmt.Errorf("snapshot: lint column: lint table %d bytes, cap %d", len(lw.lintTab), maxLintColTable)
	}
	lw.keys = extsort.NewSpillFile(dir, "lintcol-keys-*.spill", budget/3)
	lw.posts = extsort.NewSpillFile(dir, "lintcol-post-*.spill", budget/3)
	lw.details = extsort.NewSpillFile(dir, "lintcol-detail-*.spill", budget/3)
	return lw, nil
}

// Add appends one certificate's findings, which must be sorted by lint ID
// (RunCert's order). Errors are sticky.
func (lw *LintColumnWriter) Add(cf certlint.CertFindings) error {
	if lw.err != nil {
		return lw.err
	}
	if err := lw.check(cf); err != nil {
		lw.err = err
		return err
	}
	var err error
	keep := func(_ int, e error) {
		if err == nil {
			err = e
		}
	}
	e := slices.Grow(lw.entries[:0], lintColKeyEntry+lintColPostEntry*len(cf.Findings))
	e = append(e, cf.Fingerprint[:]...)
	e = binary.LittleEndian.AppendUint32(e, uint32(lw.finds))
	e = binary.LittleEndian.AppendUint32(e, uint32(len(cf.Findings)))
	detailOff := lw.details.Len()
	for _, f := range cf.Findings {
		e = binary.LittleEndian.AppendUint32(e, uint32(lw.idx[f.LintID]))
		e = binary.LittleEndian.AppendUint32(e, uint32(f.Severity))
		e = binary.LittleEndian.AppendUint32(e, uint32(detailOff))
		e = binary.LittleEndian.AppendUint32(e, uint32(len(f.Detail)))
		detailOff += int64(len(f.Detail))
	}
	lw.entries = e
	keep(lw.keys.Write(e[:lintColKeyEntry]))
	keep(lw.posts.Write(e[lintColKeyEntry:]))
	for _, f := range cf.Findings {
		keep(lw.details.WriteString(f.Detail))
	}
	lw.certs++
	lw.finds += uint64(len(cf.Findings))
	lw.last = cf.Fingerprint
	lw.err = err
	return err
}

// check validates one certificate's findings against the column's order,
// its lint table and its caps, before Add writes any of it.
func (lw *LintColumnWriter) check(cf certlint.CertFindings) error {
	if lw.certs > 0 && bytes.Compare(lw.last[:], cf.Fingerprint[:]) >= 0 {
		return fmt.Errorf("snapshot: lint column: results not fingerprint-sorted at %d", lw.certs)
	}
	if lw.certs+1 > maxCerts || lw.certs+1 > maxIndexBytes/lintColKeyEntry {
		return fmt.Errorf("snapshot: lint column: %d certs exceed the key-array cap", lw.certs+1)
	}
	if lw.finds+uint64(len(cf.Findings)) > maxLintColFindings {
		return fmt.Errorf("snapshot: lint column: %d findings, cap %d", lw.finds+uint64(len(cf.Findings)), uint64(maxLintColFindings))
	}
	if err := lw.checkFindings(cf); err != nil {
		return err
	}
	details := uint64(lw.details.Len())
	for _, f := range cf.Findings {
		if details += uint64(len(f.Detail)); details > maxLintColDetails {
			return fmt.Errorf("snapshot: lint column: detail blob %d bytes, cap %d", details, uint64(maxLintColDetails))
		}
	}
	return nil
}

// checkFindings validates one certificate's findings on their own: each
// names a linter of the table, with its severity and version, in table
// order, and carries a detail within the cap.
func (lw *LintColumnWriter) checkFindings(cf certlint.CertFindings) error {
	prevIdx := -1
	for _, f := range cf.Findings {
		li, ok := lw.idx[f.LintID]
		if !ok {
			return fmt.Errorf("snapshot: lint column: finding references unregistered lint %q", f.LintID)
		}
		if li <= prevIdx {
			return fmt.Errorf("snapshot: lint column: findings for %s not ID-sorted", cf.Fingerprint)
		}
		prevIdx = li
		if info := lw.lints[li]; f.Severity != info.Severity || f.Version != info.Version {
			return fmt.Errorf("snapshot: lint column: %s finding %s v%d contradicts lint table (%s v%d)",
				f.LintID, f.Severity, f.Version, info.Severity, info.Version)
		}
		if len(f.Detail) > maxLintColDetail {
			return fmt.Errorf("snapshot: lint column: detail %d bytes, cap %d", len(f.Detail), maxLintColDetail)
		}
	}
	return nil
}

// Finish writes the column to w: header, header checksum, then the lint
// table and the three arrays, hashed on their way out, and the body
// checksum. The writer accepts nothing after it.
func (lw *LintColumnWriter) Finish(w io.Writer) error {
	if lw.err != nil {
		return lw.err
	}
	lw.err = fmt.Errorf("snapshot: lint column already finished")
	var header [lintColHeaderLen]byte
	copy(header[:8], MagicLintColumn)
	binary.LittleEndian.PutUint64(header[8:], lw.certs)
	binary.LittleEndian.PutUint64(header[16:], lw.finds)
	binary.LittleEndian.PutUint32(header[24:], uint32(len(lw.lints)))
	binary.LittleEndian.PutUint64(header[32:], uint64(len(lw.lintTab)))
	binary.LittleEndian.PutUint64(header[40:], uint64(lw.details.Len()))
	headerSum := sha256.Sum256(header[:])
	body := sha256.New()
	out := io.MultiWriter(w, body)
	if _, err := w.Write(append(header[:], headerSum[:]...)); err != nil {
		return fmt.Errorf("snapshot: lint column write: %w", err)
	}
	if _, err := out.Write(lw.lintTab); err != nil {
		return fmt.Errorf("snapshot: lint column write: %w", err)
	}
	for _, s := range []*extsort.SpillFile{lw.keys, lw.posts, lw.details} {
		if err := s.VerifyCopy(out); err != nil {
			return fmt.Errorf("snapshot: lint column write: %w", err)
		}
	}
	if _, err := w.Write(body.Sum(nil)); err != nil {
		return fmt.Errorf("snapshot: lint column write: %w", err)
	}
	return nil
}

// Close releases the arrays' memory and spill files. Safe to call more than
// once.
func (lw *LintColumnWriter) Close() error {
	var first error
	for _, s := range []*extsort.SpillFile{lw.keys, lw.posts, lw.details} {
		if err := s.Remove(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WriteLintColumn encodes one corpus run through a LintColumnWriter at the
// default budget. Results must be sorted by fingerprint with no duplicates
// (certlint.RunCorpus's contract) and every finding must match a linter in
// infos, which must be ID-sorted with unique IDs (Registry.Infos's
// contract). On a rejected input nothing is written to w.
func WriteLintColumn(w io.Writer, results []certlint.CertFindings, infos []certlint.LinterInfo) error {
	lw, err := NewLintColumnWriter(infos, "", 0)
	if err != nil {
		return err
	}
	defer lw.Close()
	for _, cf := range results {
		if err := lw.Add(cf); err != nil {
			return err
		}
	}
	return lw.Finish(w)
}

// ReadLintColumn parses and fully validates a findings column. Every
// structural claim the file makes — counts, caps, sort orders, tiling,
// checksums, exact length — is checked before the column is usable.
func ReadLintColumn(data []byte) (*LintColumn, error) {
	if len(data) < lintColHeaderLen+32 {
		return nil, fmt.Errorf("snapshot: lint column: %d bytes, shorter than header", len(data))
	}
	if string(data[:8]) != MagicLintColumn {
		return nil, fmt.Errorf("snapshot: lint column: bad magic %q", data[:8])
	}
	certCount := binary.LittleEndian.Uint64(data[8:])
	findCount := binary.LittleEndian.Uint64(data[16:])
	lintCount := binary.LittleEndian.Uint32(data[24:])
	if reserved := binary.LittleEndian.Uint32(data[28:]); reserved != 0 {
		return nil, fmt.Errorf("snapshot: lint column: reserved field %d", reserved)
	}
	lintTabLen := binary.LittleEndian.Uint64(data[32:])
	detailLen := binary.LittleEndian.Uint64(data[40:])

	headerSum := sha256.Sum256(data[:lintColHeaderLen])
	if !bytes.Equal(headerSum[:], data[lintColHeaderLen:lintColHeaderLen+32]) {
		return nil, fmt.Errorf("snapshot: lint column: header checksum mismatch")
	}

	if certCount > maxCerts {
		return nil, fmt.Errorf("snapshot: lint column: %d certs, cap %d", certCount, uint64(maxCerts))
	}
	if lintCount > maxLintColLints {
		return nil, fmt.Errorf("snapshot: lint column: %d linters, cap %d", lintCount, maxLintColLints)
	}
	if lintTabLen > maxLintColTable {
		return nil, fmt.Errorf("snapshot: lint column: lint table %d bytes, cap %d", lintTabLen, maxLintColTable)
	}
	if detailLen > maxLintColDetails {
		return nil, fmt.Errorf("snapshot: lint column: detail blob %d bytes, cap %d", detailLen, uint64(maxLintColDetails))
	}
	if findCount > maxLintColFindings {
		return nil, fmt.Errorf("snapshot: lint column: %d findings, cap %d", findCount, uint64(maxLintColFindings))
	}
	if lintCount > 0 && findCount > certCount*uint64(lintCount) {
		return nil, fmt.Errorf("snapshot: lint column: %d findings for %d certs × %d linters", findCount, certCount, lintCount)
	}
	if lintCount == 0 && findCount > 0 {
		return nil, fmt.Errorf("snapshot: lint column: %d findings but no linters", findCount)
	}
	if certCount > maxIndexBytes/lintColKeyEntry {
		return nil, fmt.Errorf("snapshot: lint column: key array over cap")
	}

	keysLen := int64(certCount) * lintColKeyEntry
	postsLen := int64(findCount) * lintColPostEntry
	want := int64(lintColHeaderLen) + 32 + int64(lintTabLen) + keysLen + postsLen + int64(detailLen) + 32
	if int64(len(data)) != want {
		return nil, fmt.Errorf("snapshot: lint column: file is %d bytes, layout needs %d", len(data), want)
	}

	off := int64(lintColHeaderLen) + 32
	lintTab := data[off : off+int64(lintTabLen)]
	off += int64(lintTabLen)
	keys := data[off : off+keysLen]
	off += keysLen
	posts := data[off : off+postsLen]
	off += postsLen
	details := data[off : off+int64(detailLen)]
	off += int64(detailLen)

	body := sha256.New()
	body.Write(lintTab)
	body.Write(keys)
	body.Write(posts)
	body.Write(details)
	var bodySum [32]byte
	body.Sum(bodySum[:0])
	if !bytes.Equal(bodySum[:], data[off:off+32]) {
		return nil, fmt.Errorf("snapshot: lint column: body checksum mismatch")
	}

	lints, err := parseLintTable(lintTab, lintCount)
	if err != nil {
		return nil, err
	}

	// Keys: strictly ascending fingerprints, groups tiling the postings.
	var nextOff uint64
	for k := uint64(0); k < certCount; k++ {
		e := keys[k*lintColKeyEntry:]
		if k > 0 && bytes.Compare(keys[(k-1)*lintColKeyEntry:][:32], e[:32]) >= 0 {
			return nil, fmt.Errorf("snapshot: lint column: key array not sorted at %d", k)
		}
		postOff := uint64(binary.LittleEndian.Uint32(e[32:]))
		postCount := uint64(binary.LittleEndian.Uint32(e[36:]))
		if postOff != nextOff {
			return nil, fmt.Errorf("snapshot: lint column: key %d postings at %d, want %d", k, postOff, nextOff)
		}
		nextOff += postCount
		if nextOff > findCount {
			return nil, fmt.Errorf("snapshot: lint column: key %d postings overrun", k)
		}
		prevIdx := int64(-1)
		for p := postOff; p < nextOff; p++ {
			pe := posts[p*lintColPostEntry:]
			lintIdx := binary.LittleEndian.Uint32(pe[0:])
			if lintIdx >= lintCount {
				return nil, fmt.Errorf("snapshot: lint column: posting %d references lint %d of %d", p, lintIdx, lintCount)
			}
			if int64(lintIdx) <= prevIdx {
				return nil, fmt.Errorf("snapshot: lint column: postings for key %d not lint-sorted", k)
			}
			prevIdx = int64(lintIdx)
			if sev := binary.LittleEndian.Uint32(pe[4:]); sev != uint32(lints[lintIdx].Severity) {
				return nil, fmt.Errorf("snapshot: lint column: posting %d severity %d contradicts lint table", p, sev)
			}
		}
	}
	if nextOff != findCount {
		return nil, fmt.Errorf("snapshot: lint column: keys cover %d postings of %d", nextOff, findCount)
	}

	// Postings: details tile the blob in order.
	var nextDetail uint64
	for p := uint64(0); p < findCount; p++ {
		pe := posts[p*lintColPostEntry:]
		dOff := uint64(binary.LittleEndian.Uint32(pe[8:]))
		dLen := uint64(binary.LittleEndian.Uint32(pe[12:]))
		if dLen > maxLintColDetail {
			return nil, fmt.Errorf("snapshot: lint column: posting %d detail %d bytes, cap %d", p, dLen, maxLintColDetail)
		}
		if dOff != nextDetail {
			return nil, fmt.Errorf("snapshot: lint column: posting %d detail at %d, want %d", p, dOff, nextDetail)
		}
		nextDetail += dLen
		if nextDetail > detailLen {
			return nil, fmt.Errorf("snapshot: lint column: posting %d detail overruns blob", p)
		}
	}
	if nextDetail != detailLen {
		return nil, fmt.Errorf("snapshot: lint column: details cover %d bytes of %d", nextDetail, detailLen)
	}

	return &LintColumn{Lints: lints, keys: keys, posts: posts, details: details}, nil
}

// parseLintTable decodes and validates the lint identity records.
func parseLintTable(tab []byte, count uint32) ([]certlint.LinterInfo, error) {
	lints := make([]certlint.LinterInfo, 0, count)
	rest := tab
	for i := uint32(0); i < count; i++ {
		idLen, n := binary.Uvarint(rest)
		if n <= 0 || idLen == 0 || idLen > maxLintColID || uint64(len(rest)-n) < idLen {
			return nil, fmt.Errorf("snapshot: lint column: lint table entry %d truncated", i)
		}
		rest = rest[n:]
		id := string(rest[:idLen])
		rest = rest[idLen:]
		version, n := binary.Uvarint(rest)
		if n <= 0 || version == 0 || version > maxLintColVersion {
			return nil, fmt.Errorf("snapshot: lint column: lint %s bad version", id)
		}
		rest = rest[n:]
		if len(rest) < 1 {
			return nil, fmt.Errorf("snapshot: lint column: lint %s missing severity", id)
		}
		sev := rest[0]
		rest = rest[1:]
		if int(sev) >= certlint.NumSeverities {
			return nil, fmt.Errorf("snapshot: lint column: lint %s severity %d", id, sev)
		}
		if i > 0 && lints[i-1].ID >= id {
			return nil, fmt.Errorf("snapshot: lint column: lint table not ID-sorted at %q", id)
		}
		lints = append(lints, certlint.LinterInfo{ID: id, Version: int(version), Severity: certlint.Severity(sev)})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("snapshot: lint column: %d trailing lint-table bytes", len(rest))
	}
	return lints, nil
}

// ReadLintColumnFile loads and validates a column from disk.
func ReadLintColumnFile(path string) (*LintColumn, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadLintColumn(data)
}

// CertCount returns how many certificates the column covers.
func (lc *LintColumn) CertCount() int { return len(lc.keys) / lintColKeyEntry }

// FindingCount returns how many findings the column holds.
func (lc *LintColumn) FindingCount() int { return len(lc.posts) / lintColPostEntry }

// Fingerprint returns the k-th certificate fingerprint in column order.
func (lc *LintColumn) Fingerprint(k int) x509lite.Fingerprint {
	var fp x509lite.Fingerprint
	copy(fp[:], lc.keys[k*lintColKeyEntry:])
	return fp
}

// FindingsAt returns the k-th certificate's findings in column order.
func (lc *LintColumn) FindingsAt(k int) []certlint.Finding {
	e := lc.keys[k*lintColKeyEntry:]
	postOff := int(binary.LittleEndian.Uint32(e[32:]))
	postCount := int(binary.LittleEndian.Uint32(e[36:]))
	out := make([]certlint.Finding, 0, postCount)
	for p := postOff; p < postOff+postCount; p++ {
		pe := lc.posts[p*lintColPostEntry:]
		info := lc.Lints[binary.LittleEndian.Uint32(pe[0:])]
		dOff := binary.LittleEndian.Uint32(pe[8:])
		dLen := binary.LittleEndian.Uint32(pe[12:])
		out = append(out, certlint.Finding{
			LintID:   info.ID,
			Version:  info.Version,
			Severity: certlint.Severity(binary.LittleEndian.Uint32(pe[4:])),
			Detail:   string(lc.details[dOff : dOff+dLen]),
		})
	}
	return out
}

// Findings binary-searches the column for one certificate's findings. The
// second return distinguishes "not in the corpus" from "linted clean".
func (lc *LintColumn) Findings(fp x509lite.Fingerprint) ([]certlint.Finding, bool) {
	n := lc.CertCount()
	k := sort.Search(n, func(i int) bool {
		return bytes.Compare(lc.keys[i*lintColKeyEntry:][:32], fp[:]) >= 0
	})
	if k >= n || !bytes.Equal(lc.keys[k*lintColKeyEntry:][:32], fp[:]) {
		return nil, false
	}
	return lc.FindingsAt(k), true
}
