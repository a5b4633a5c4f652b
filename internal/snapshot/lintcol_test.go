package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"securepki/internal/certlint"
	"securepki/internal/obs"
	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// testLintInfos is a small ID-sorted registry identity for column tests.
func testLintInfos() []certlint.LinterInfo {
	return []certlint.LinterInfo{
		{ID: "a_lint", Version: 1, Severity: certlint.Info},
		{ID: "b_lint", Version: 2, Severity: certlint.Warn},
		{ID: "c_lint", Version: 1, Severity: certlint.Error},
		{ID: "d_lint", Version: 3, Severity: certlint.Fatal},
	}
}

// testLintResults builds n fingerprint-sorted cert findings with a varied
// findings schedule, including clean certs and empty details.
func testLintResults(n int) []certlint.CertFindings {
	infos := testLintInfos()
	results := make([]certlint.CertFindings, 0, n)
	for i := 0; i < n; i++ {
		fp := x509lite.FingerprintBytes([]byte(fmt.Sprintf("lintcol-cert-%d", i)))
		var fs []certlint.Finding
		for j, info := range infos {
			switch {
			case i%(j+2) != 0:
				continue
			case j == 1:
				fs = append(fs, certlint.Finding{LintID: info.ID, Version: info.Version, Severity: info.Severity})
			default:
				fs = append(fs, certlint.Finding{
					LintID: info.ID, Version: info.Version, Severity: info.Severity,
					Detail: fmt.Sprintf("detail %d/%d", i, j),
				})
			}
		}
		results = append(results, certlint.CertFindings{Fingerprint: fp, Findings: fs})
	}
	sortCertFindings(results)
	return results
}

func sortCertFindings(results []certlint.CertFindings) {
	slices.SortFunc(results, func(a, b certlint.CertFindings) int {
		return bytes.Compare(a.Fingerprint[:], b.Fingerprint[:])
	})
}

func encodeLintColumn(tb testing.TB, results []certlint.CertFindings, infos []certlint.LinterInfo) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteLintColumn(&buf, results, infos); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestLintColumnRoundTrip(t *testing.T) {
	results := testLintResults(37)
	data := encodeLintColumn(t, results, testLintInfos())
	lc, err := ReadLintColumn(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lc.Lints, testLintInfos()) {
		t.Errorf("lint table drifted: %+v", lc.Lints)
	}
	if lc.CertCount() != len(results) {
		t.Fatalf("CertCount = %d, want %d", lc.CertCount(), len(results))
	}
	var wantFindings int
	for k, want := range results {
		wantFindings += len(want.Findings)
		if lc.Fingerprint(k) != want.Fingerprint {
			t.Fatalf("cert %d fingerprint drifted", k)
		}
		got := lc.FindingsAt(k)
		if len(got) == 0 && len(want.Findings) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want.Findings) {
			t.Errorf("cert %d findings drifted:\n got %+v\nwant %+v", k, got, want.Findings)
		}
	}
	if lc.FindingCount() != wantFindings {
		t.Errorf("FindingCount = %d, want %d", lc.FindingCount(), wantFindings)
	}

	// Point lookup: a present fingerprint answers, a missing one says so.
	fs, ok := lc.Findings(results[5].Fingerprint)
	if !ok || !reflect.DeepEqual(fs, results[5].Findings) {
		t.Errorf("Findings(present) = %+v, %v", fs, ok)
	}
	if _, ok := lc.Findings(x509lite.FingerprintBytes([]byte("never linted"))); ok {
		t.Error("Findings(absent) claimed a hit")
	}
}

func TestLintColumnFileRoundTrip(t *testing.T) {
	results := testLintResults(9)
	path := filepath.Join(t.TempDir(), "corpus.lint")
	if err := obs.WriteFileAtomic(path, func(w io.Writer) error { return WriteLintColumn(w, results, testLintInfos()) }); err != nil {
		t.Fatal(err)
	}
	lc, err := ReadLintColumnFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lc.CertCount() != len(results) {
		t.Errorf("CertCount = %d, want %d", lc.CertCount(), len(results))
	}
}

// TestLintColumnFileFailureKeepsOld: a rejected rewrite of an existing
// column must leave the old column byte-identical and no temp file behind.
func TestLintColumnFileFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.lint")
	if err := obs.WriteFileAtomic(path, func(w io.Writer) error { return WriteLintColumn(w, testLintResults(9), testLintInfos()) }); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	repeated := testLintResults(2)
	repeated[1].Fingerprint = repeated[0].Fingerprint
	if err := obs.WriteFileAtomic(path, func(w io.Writer) error { return WriteLintColumn(w, repeated, testLintInfos()) }); err == nil || !strings.Contains(err.Error(), "not fingerprint-sorted") {
		t.Fatalf("rewrite with a repeated fingerprint: err = %v, want the sort check", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failed rewrite left the column at %d bytes, was %d", len(got), len(want))
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("dir holds %d entries after the failed rewrite, want only the column", len(entries))
	}
}

func TestLintColumnEmpty(t *testing.T) {
	data := encodeLintColumn(t, nil, testLintInfos())
	lc, err := ReadLintColumn(data)
	if err != nil {
		t.Fatal(err)
	}
	if lc.CertCount() != 0 || lc.FindingCount() != 0 {
		t.Errorf("empty column reports %d certs, %d findings", lc.CertCount(), lc.FindingCount())
	}
	// No linters at all is also legal as long as no findings reference one.
	data = encodeLintColumn(t, []certlint.CertFindings{
		{Fingerprint: x509lite.FingerprintBytes([]byte("clean"))},
	}, nil)
	lc, err = ReadLintColumn(data)
	if err != nil {
		t.Fatal(err)
	}
	if lc.CertCount() != 1 || len(lc.FindingsAt(0)) != 0 {
		t.Error("linter-less column drifted")
	}
}

func TestWriteLintColumnRejects(t *testing.T) {
	infos := testLintInfos()
	fp := x509lite.FingerprintBytes([]byte("a"))
	find := func(id string) certlint.Finding {
		for _, info := range infos {
			if info.ID == id {
				return certlint.Finding{LintID: id, Version: info.Version, Severity: info.Severity}
			}
		}
		panic("unknown id " + id)
	}

	cases := []struct {
		name    string
		results []certlint.CertFindings
		infos   []certlint.LinterInfo
		wantSub string
	}{
		{
			"duplicate fingerprint",
			[]certlint.CertFindings{{Fingerprint: fp}, {Fingerprint: fp}},
			infos, "not fingerprint-sorted",
		},
		{
			"unknown lint ID",
			[]certlint.CertFindings{{Fingerprint: fp, Findings: []certlint.Finding{{LintID: "ghost", Version: 1}}}},
			infos, "unregistered lint",
		},
		{
			"findings out of order",
			[]certlint.CertFindings{{Fingerprint: fp, Findings: []certlint.Finding{find("b_lint"), find("a_lint")}}},
			infos, "not ID-sorted",
		},
		{
			"unsorted infos",
			nil,
			[]certlint.LinterInfo{{ID: "z", Version: 1}, {ID: "a", Version: 1}},
			"not ID-sorted",
		},
		{
			"zero info version",
			nil,
			[]certlint.LinterInfo{{ID: "a", Version: 0}},
			"version",
		},
		{
			"info severity out of range",
			nil,
			[]certlint.LinterInfo{{ID: "a", Version: 1, Severity: certlint.Severity(9)}},
			"severity",
		},
		{
			"info ID over the reader's cap",
			nil,
			[]certlint.LinterInfo{{ID: strings.Repeat("a", maxLintColID+1), Version: 1}},
			"length",
		},
		{
			"info version over the reader's cap",
			nil,
			[]certlint.LinterInfo{{ID: "a", Version: maxLintColVersion + 1}},
			"version",
		},
		{
			"oversized detail",
			[]certlint.CertFindings{{Fingerprint: fp, Findings: []certlint.Finding{{
				LintID: "a_lint", Version: 1, Severity: certlint.Info,
				Detail: strings.Repeat("x", maxLintColDetail+1),
			}}}},
			infos, "cap",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := WriteLintColumn(&bytes.Buffer{}, tc.results, tc.infos)
			if err == nil {
				t.Fatal("bad input accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// lintColOffsets decodes the section offsets of a valid column.
type lintColOffsets struct {
	lintTab, keys, posts, details, bodySum int64
}

func lintColLayout(data []byte) lintColOffsets {
	certCount := int64(binary.LittleEndian.Uint64(data[8:]))
	findCount := int64(binary.LittleEndian.Uint64(data[16:]))
	lintTabLen := int64(binary.LittleEndian.Uint64(data[32:]))
	detailLen := int64(binary.LittleEndian.Uint64(data[40:]))
	var o lintColOffsets
	o.lintTab = lintColHeaderLen + 32
	o.keys = o.lintTab + lintTabLen
	o.posts = o.keys + certCount*lintColKeyEntry
	o.details = o.posts + findCount*lintColPostEntry
	o.bodySum = o.details + detailLen
	return o
}

// patchLintHeader mutates the 48 header bytes and recomputes the header
// checksum, so corruption reaches the field validation behind it.
func patchLintHeader(data []byte, modify func(header []byte)) []byte {
	out := append([]byte(nil), data...)
	modify(out[:lintColHeaderLen])
	sum := sha256.Sum256(out[:lintColHeaderLen])
	copy(out[lintColHeaderLen:], sum[:])
	return out
}

// patchLintBody mutates the body blobs and recomputes the body checksum, so
// only structural validation can reject the result.
func patchLintBody(data []byte, modify func(lintTab, keys, posts, details []byte)) []byte {
	out := append([]byte(nil), data...)
	o := lintColLayout(out)
	modify(out[o.lintTab:o.keys], out[o.keys:o.posts], out[o.posts:o.details], out[o.details:o.bodySum])
	sum := sha256.New()
	sum.Write(out[o.lintTab:o.bodySum])
	copy(out[o.bodySum:], sum.Sum(nil))
	return out
}

// Every corrupted findings column must produce an explicit error — no panic,
// no out-of-bounds read, never silently wrong findings. Same discipline as
// TestReadCorruptV3 for the snapshot proper.
func TestReadCorruptLintColumn(t *testing.T) {
	valid := encodeLintColumn(t, testLintResults(23), testLintInfos())
	o := lintColLayout(valid)

	cases := []struct {
		name    string
		input   []byte
		wantSub string
	}{
		{"empty", nil, "shorter than header"},
		{"truncated header", valid[:40], "shorter than header"},
		{"bad magic", append([]byte("NOTLINT0"), valid[8:]...), "bad magic"},
		{"truncated body", valid[:len(valid)-40], "layout needs"},
		{"trailing garbage", append(append([]byte(nil), valid...), 0x00), "layout needs"},
		{"flipped header byte", flipByte(valid, 9), "header checksum"},
		{"flipped body byte", flipByte(valid, int(o.keys)+2), "body checksum"},
		{"flipped detail byte", flipByte(valid, int(o.details)), "body checksum"},
		{
			"reserved field set",
			patchLintHeader(valid, func(h []byte) { binary.LittleEndian.PutUint32(h[28:], 7) }),
			"reserved",
		},
		{
			"absurd linter count",
			patchLintHeader(valid, func(h []byte) { binary.LittleEndian.PutUint32(h[24:], maxLintColLints+1) }),
			"cap",
		},
		{
			"absurd lint table length",
			patchLintHeader(valid, func(h []byte) { binary.LittleEndian.PutUint64(h[32:], maxLintColTable+1) }),
			"cap",
		},
		{
			"absurd detail length",
			patchLintHeader(valid, func(h []byte) { binary.LittleEndian.PutUint64(h[40:], maxLintColDetails+1) }),
			"cap",
		},
		{
			"findings exceed certs times linters",
			patchLintHeader(valid, func(h []byte) {
				binary.LittleEndian.PutUint64(h[16:], binary.LittleEndian.Uint64(h[8:])*4+1)
			}),
			"findings",
		},
		{
			"unsorted key fingerprints",
			patchLintBody(valid, func(_, keys, _, _ []byte) {
				tmp := make([]byte, lintColKeyEntry)
				copy(tmp, keys[:lintColKeyEntry])
				copy(keys[:lintColKeyEntry], keys[lintColKeyEntry:2*lintColKeyEntry])
				copy(keys[lintColKeyEntry:2*lintColKeyEntry], tmp)
			}),
			"", // either non-tiling postings or unsorted keys, both explicit
		},
		{
			"overlapping posting groups",
			patchLintBody(valid, func(_, keys, _, _ []byte) {
				// Find a key with postings beyond offset 0 and rewind it.
				for k := 0; k*lintColKeyEntry < len(keys); k++ {
					e := keys[k*lintColKeyEntry:]
					if binary.LittleEndian.Uint32(e[32:]) != 0 {
						binary.LittleEndian.PutUint32(e[32:], 0)
						return
					}
				}
			}),
			"postings",
		},
		{
			"posting references missing lint",
			patchLintBody(valid, func(_, _, posts, _ []byte) {
				binary.LittleEndian.PutUint32(posts[0:], 99)
			}),
			"references lint",
		},
		{
			"posting severity contradicts lint table",
			patchLintBody(valid, func(_, _, posts, _ []byte) {
				sev := binary.LittleEndian.Uint32(posts[4:])
				binary.LittleEndian.PutUint32(posts[4:], (sev+1)%4)
			}),
			"contradicts",
		},
		{
			"detail blob overrun",
			patchLintBody(valid, func(_, _, posts, _ []byte) {
				dLen := binary.LittleEndian.Uint32(posts[12:])
				binary.LittleEndian.PutUint32(posts[12:], dLen+8)
			}),
			"detail",
		},
		{
			"unsorted lint table",
			patchLintBody(valid, func(lintTab, _, _, _ []byte) {
				// "a_lint" → "z_lint": breaks ascending IDs.
				lintTab[1] = 'z'
			}),
			"not ID-sorted",
		},
		{
			"lint table bad severity",
			patchLintBody(valid, func(lintTab, _, _, _ []byte) {
				// Entry 0: uvarint len (1 byte, =6), id (6), version uvarint
				// (1 byte), severity byte.
				lintTab[8] = 9
			}),
			"severity",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadLintColumn(tc.input)
			if err == nil {
				t.Fatal("corrupt column accepted")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestLintColumnFromRunCorpus closes the loop against the real registry: a
// linted corpus persists and reloads with findings byte-equal to the live
// run, at several worker counts.
func TestLintColumnFromRunCorpus(t *testing.T) {
	// Hand-built certificates exercise enough linters; reuse the synthetic
	// results as the baseline and the registry identity as the table.
	infos := certlint.Default().Infos()
	results := []certlint.CertFindings{}
	data := encodeLintColumn(t, results, infos)
	lc, err := ReadLintColumn(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(lc.Lints) != certlint.Default().Len() {
		t.Fatalf("column persists %d linters, registry has %d", len(lc.Lints), certlint.Default().Len())
	}
	if !reflect.DeepEqual(lc.Lints, infos) {
		t.Error("registry identity drifted through the column")
	}
}

// lintColEncodeCases are the inputs the writer is pinned on, with the
// SHA-256 of the column the former bytes.Buffer encoder wrote for each.
func lintColEncodeCases() []struct {
	name    string
	results []certlint.CertFindings
	sha     string
} {
	clean := make([]certlint.CertFindings, 6)
	for i := range clean {
		clean[i].Fingerprint = x509lite.FingerprintBytes([]byte(fmt.Sprintf("clean-%d", i)))
	}
	sortCertFindings(clean)
	big := testLintResults(5)
	big[2].Findings = []certlint.Finding{{LintID: "a_lint", Version: 1, Severity: certlint.Info, Detail: strings.Repeat("d", maxLintColDetail)}}
	return []struct {
		name    string
		results []certlint.CertFindings
		sha     string
	}{
		{"no results", nil, "d071cbfd43dac7e84822c6a746147d7ce11ecd1936537850b9e39f9b8ecc954c"},
		{"zero-finding certificates", clean, "cb428b7c5f09d89de30450995b2327dff279445cacec4c70fe3542fda8422eee"},
		{"64 KiB detail", big, "6412d865abdad978763fd1605222a72b7c91d0d66fcea6f43c23c080b1463895"},
		{"mixed", testLintResults(300), "b31c288b64fbe92b813418097cfef59ee80af05ebce9c45426847248cfcd31f0"},
	}
}

// encodeBatches runs results through a LintColumnWriter with budget bytes
// (spilling a run whenever that fills), in batches of 7, and reports how
// many runs spilled.
func encodeBatches(t *testing.T, results []certlint.CertFindings, budget int64) (col []byte, runs int) {
	t.Helper()
	lw, err := NewLintColumnWriter(testLintInfos(), t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	for lo := 0; lo < len(results); lo += 7 {
		if err := lw.Add(results[lo:min(lo+7, len(results))]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := lw.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), lw.Runs()
}

// TestLintColumnWriterMatchesPinned: the writer reproduces the former
// encoder's bytes — no results, certificates without findings, a detail at
// the 64 KiB cap, a mixed corpus — through WriteLintColumn at the default
// budget, and from batches that arrive in reverse or in a seeded shuffle,
// at an unbounded budget and at a budget so small that every record spills
// its own run.
func TestLintColumnWriterMatchesPinned(t *testing.T) {
	for _, tc := range lintColEncodeCases() {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteLintColumn(&buf, tc.results, testLintInfos()); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.sha {
				t.Fatalf("WriteLintColumn SHA-256 %s, want %s", got, tc.sha)
			}
			reversed := slices.Clone(tc.results)
			slices.Reverse(reversed)
			shuffled := slices.Clone(tc.results)
			stats.NewRNG(1).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, order := range []struct {
				name    string
				results []certlint.CertFindings
			}{{"reversed", reversed}, {"shuffled", shuffled}} {
				col, runs := encodeBatches(t, order.results, 0)
				if !bytes.Equal(col, buf.Bytes()) || runs != 0 {
					t.Fatalf("%s, unbounded: %d runs, bytes equal: %v", order.name, runs, bytes.Equal(col, buf.Bytes()))
				}
				col, runs = encodeBatches(t, order.results, 1)
				if !bytes.Equal(col, buf.Bytes()) || runs != len(tc.results) {
					t.Fatalf("%s, spilling: %d runs for %d certs, bytes equal: %v", order.name, runs, len(tc.results), bytes.Equal(col, buf.Bytes()))
				}
			}
		})
	}
}

// TestLintRunsCorruptSpill: a lint run that rots on disk between its spill
// and Finish fails Finish with an explicit error — a checksum mismatch, a
// truncation or a record the lint table refutes — before a byte is written,
// rather than feeding the column wrong findings.
func TestLintRunsCorruptSpill(t *testing.T) {
	results := testLintResults(200)
	for _, tc := range []struct {
		name    string
		mutate  func(b []byte) []byte
		wantSub string
	}{
		{"bit flip in a detail", func(b []byte) []byte {
			i := bytes.Index(b, []byte("detail"))
			b[i] ^= 0x20
			return b
		}, "corrupt spill"},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }, "truncated"},
		{"finding count lie", func(b []byte) []byte { b[32] = 0xff; return b }, "findings for 4 linters"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			lw, err := NewLintColumnWriter(testLintInfos(), dir, 4<<10)
			if err != nil {
				t.Fatal(err)
			}
			defer lw.Close()
			if err := lw.Add(results); err != nil {
				t.Fatal(err)
			}
			paths, _ := filepath.Glob(filepath.Join(dir, "lint-run-*"))
			if len(paths) < 2 || len(paths) != lw.Runs() {
				t.Fatalf("%d run files for %d runs, want at least 2", len(paths), lw.Runs())
			}
			b, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(paths[0], tc.mutate(b), 0o600); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err = lw.Finish(&out)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Finish over a corrupted run: err = %v, want it to mention %q", err, tc.wantSub)
			}
			if out.Len() != 0 {
				t.Fatalf("Finish over a corrupted run wrote %d bytes", out.Len())
			}
		})
	}
}

// TestLintColumnRepeatAcrossRuns: a fingerprint that comes twice, in two
// spilled runs, fails Finish's check merge, and nothing is written.
func TestLintColumnRepeatAcrossRuns(t *testing.T) {
	results := testLintResults(50)
	// At one byte every record spills its own run, so the repeat and its
	// original land in different runs.
	lw, err := NewLintColumnWriter(testLintInfos(), t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	if err := lw.Add(results); err != nil {
		t.Fatal(err)
	}
	if err := lw.Add(results[20:21]); err != nil {
		t.Fatal(err)
	}
	if lw.Runs() != len(results)+1 {
		t.Fatalf("%d runs for %d records", lw.Runs(), len(results)+1)
	}
	var out bytes.Buffer
	if err := lw.Finish(&out); err == nil || !strings.Contains(err.Error(), "not fingerprint-sorted") {
		t.Fatalf("Finish with a repeated fingerprint: err = %v, want the sort check", err)
	}
	if out.Len() != 0 {
		t.Fatalf("rejected column wrote %d bytes", out.Len())
	}
}

// TestLintColumnRejectsTableContradictions reproduces two columns the
// writer used to emit: a finding whose severity contradicts the lint table
// (the reader then refused the file) and one whose version does (read back
// silently as the table's version). Both are rejected before a byte is
// written, by WriteLintColumn, by the writer's Add, and through an atomic
// file write, which leaves the old column byte-identical.
func TestLintColumnRejectsTableContradictions(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    certlint.Finding
	}{
		{"severity", certlint.Finding{LintID: "b_lint", Version: 2, Severity: certlint.Error}},
		{"version", certlint.Finding{LintID: "b_lint", Version: 7, Severity: certlint.Warn}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results := testLintResults(9)
			results[4].Findings = []certlint.Finding{tc.f}
			var buf bytes.Buffer
			err := WriteLintColumn(&buf, results, testLintInfos())
			if err == nil || !strings.Contains(err.Error(), "contradicts lint table") {
				t.Fatalf("WriteLintColumn: err = %v, want the lint-table check", err)
			}
			if buf.Len() != 0 {
				t.Fatalf("rejected column wrote %d bytes", buf.Len())
			}

			lw, err := NewLintColumnWriter(testLintInfos(), t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer lw.Close()
			if err := lw.Add(results); err == nil || !strings.Contains(err.Error(), "contradicts lint table") {
				t.Fatalf("LintColumnWriter.Add: err = %v, want the lint-table check", err)
			}

			path := filepath.Join(t.TempDir(), "corpus.lint")
			if err := obs.WriteFileAtomic(path, func(w io.Writer) error { return WriteLintColumn(w, testLintResults(9), testLintInfos()) }); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := obs.WriteFileAtomic(path, func(w io.Writer) error { return WriteLintColumn(w, results, testLintInfos()) }); err == nil {
				t.Fatal("an atomic write of WriteLintColumn accepted a contradicting finding")
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("failed rewrite left %d bytes, was %d (err %v)", len(got), len(want), err)
			}
		})
	}
}

// TestLintColumnWriterRejectsLate: a finished writer takes nothing more.
func TestLintColumnWriterRejectsLate(t *testing.T) {
	lw, err := NewLintColumnWriter(testLintInfos(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	if err := lw.Finish(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := lw.Add([]certlint.CertFindings{{Fingerprint: x509lite.FingerprintBytes([]byte("late"))}}); err == nil {
		t.Fatal("Add after Finish accepted")
	}
}
