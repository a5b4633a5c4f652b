package snapshot

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"securepki/internal/certlint"
	"securepki/internal/obs"
	"securepki/internal/x509lite"
)

// lintColEncodeCases are the inputs the streaming encoder is pinned on, with
// the SHA-256 of the column the former bytes.Buffer encoder wrote for each.
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

// encodeStreamed runs results through the streaming path: a LintRuns with
// runBudget bytes (spilling a run whenever that fills) merged into a
// LintColumnWriter with colBudget. It reports how many runs spilled and
// which of the column's arrays had moved to files before Finish.
func encodeStreamed(t *testing.T, results []certlint.CertFindings, runBudget, colBudget int64) (col []byte, runs, spilled int) {
	t.Helper()
	dir := t.TempDir()
	lw, err := NewLintColumnWriter(testLintInfos(), dir, colBudget)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	lr := NewLintRuns(lw, dir, runBudget)
	defer lr.Close()
	// Batches of 7 arrive in reverse, so the runs must restore the order.
	for hi := len(results); hi > 0; hi -= 7 {
		if err := lr.Add(results[max(0, hi-7):hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := lr.Merge(lw.Add); err != nil {
		t.Fatal(err)
	}
	arrays, _ := filepath.Glob(filepath.Join(dir, "lintcol-*"))
	var buf bytes.Buffer
	if err := lw.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), lr.Runs(), len(arrays)
}

// TestLintColumnWriterMatchesPinned: the streaming encoder reproduces the
// former encoder's bytes — no results, certificates without findings, a
// detail at the 64 KiB cap, a mixed corpus — through WriteLintColumn at the
// default budget, and through sorted runs at an unbounded budget and at a
// budget so small that every record spills its own run and every non-empty
// array moves to a file.
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
			col, runs, spilled := encodeStreamed(t, tc.results, 0, 0)
			if !bytes.Equal(col, buf.Bytes()) || runs != 0 || spilled != 0 {
				t.Fatalf("unbounded: %d runs, %d arrays spilled, bytes equal: %v", runs, spilled, bytes.Equal(col, buf.Bytes()))
			}
			col, runs, spilled = encodeStreamed(t, tc.results, 1, 3)
			if !bytes.Equal(col, buf.Bytes()) {
				t.Fatal("spilling: column differs from WriteLintColumn's")
			}
			wantArrays := 0
			if len(tc.results) > 0 {
				wantArrays++ // keys
				for _, cf := range tc.results {
					if len(cf.Findings) > 0 {
						wantArrays = 3 // postings and details too; every test detail is non-empty somewhere
						break
					}
				}
			}
			if runs != len(tc.results) || spilled != wantArrays {
				t.Fatalf("spilling: %d runs for %d certs, %d arrays spilled of %d", runs, len(tc.results), spilled, wantArrays)
			}
		})
	}
}

// TestLintRunsCorruptSpill: a lint run that rots on disk between its spill
// and the merge fails the merge with an explicit error — a checksum
// mismatch or a truncation — rather than feeding the column wrong findings.
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
			lw, err := NewLintColumnWriter(testLintInfos(), dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer lw.Close()
			lr := NewLintRuns(lw, dir, 4<<10)
			defer lr.Close()
			if err := lr.Add(results); err != nil {
				t.Fatal(err)
			}
			paths, _ := filepath.Glob(filepath.Join(dir, "lint-run-*"))
			if len(paths) < 2 || len(paths) != lr.Runs() {
				t.Fatalf("%d run files for %d runs, want at least 2", len(paths), lr.Runs())
			}
			b, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(paths[0], tc.mutate(b), 0o600); err != nil {
				t.Fatal(err)
			}
			err = lr.Merge(lw.Add)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("merge over a corrupted run: err = %v, want it to mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestLintColumnRejectsTableContradictions reproduces two columns the
// writer used to emit: a finding whose severity contradicts the lint table
// (the reader then refused the file) and one whose version does (read back
// silently as the table's version). Both are rejected before a byte is
// written, directly, through sorted runs, and through an atomic file write,
// which leaves the old column byte-identical.
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
			lr := NewLintRuns(lw, t.TempDir(), 0)
			defer lr.Close()
			if err := lr.Add(results); err == nil || !strings.Contains(err.Error(), "contradicts lint table") {
				t.Fatalf("LintRuns.Add: err = %v, want the lint-table check", err)
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
	if err := lw.Add(certlint.CertFindings{Fingerprint: x509lite.FingerprintBytes([]byte("late"))}); err == nil {
		t.Fatal("Add after Finish accepted")
	}
}
