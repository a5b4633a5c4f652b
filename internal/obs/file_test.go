package obs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteMetricsFileRoundTrip: the artefact a cmd's -metrics-out writes
// passes its own validator.
func TestWriteMetricsFileRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.count").Add(3)
	reg.Histogram("b.lat", []int64{10}).Observe(4)
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := WriteMetricsFile(path, reg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(data); err != nil {
		t.Fatalf("written metrics fail validation: %v", err)
	}
}

// TestWriteFileAtomicShortWrite is the crash-safety test the old truncate-
// then-write path fails: an error partway through the write must leave the
// previous file byte-identical, with no temp debris.
func TestWriteFileAtomicShortWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	const oldDoc = `{"version":1,"metrics":[]}` + "\n"
	if err := os.WriteFile(path, []byte(oldDoc), 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("simulated crash mid-write")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		// Half a document lands in the temp file, then the "crash".
		io.WriteString(w, `{"version":1,"metrics":[{"name":"torn`)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the short-write error", err)
	}

	data, readErr := os.ReadFile(path)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if string(data) != oldDoc {
		t.Fatalf("short write corrupted the target:\n%s", data)
	}
	// The aborted temp file must not accumulate.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp debris left behind: %s", e.Name())
		}
	}
}

// TestWriteFileAtomicReplaces: a successful write replaces the old content
// entirely and removes its temp file.
func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new contents")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "new contents" {
		t.Fatalf("content = %q", data)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want just the target", len(entries))
	}
}

// TestWriteFileAtomicBadDir: an unwritable directory errors cleanly instead
// of partially succeeding.
func TestWriteFileAtomicBadDir(t *testing.T) {
	err := WriteFileAtomic(filepath.Join(t.TempDir(), "missing", "out.json"), func(w io.Writer) error {
		return nil
	})
	if err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// TestWriteFileAtomicBareName: a path with no directory writes its temp file
// beside the target in the working directory, not in TMPDIR — a temp file on
// another file system could not be renamed into place.
func TestWriteFileAtomicBareName(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	t.Setenv("TMPDIR", filepath.Join(dir, "missing"))
	if err := WriteFileAtomic("out.json", func(w io.Writer) error {
		_, err := io.WriteString(w, "contents")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "out.json"))
	if err != nil || string(data) != "contents" {
		t.Fatalf("content = %q, err %v", data, err)
	}
}

// TestWriteFileAtomicModes: a new file gets the mode os.WriteFile gives one
// in the same directory under the process umask, not os.CreateTemp's 0600,
// and rewriting a 0640 file leaves it 0640.
func TestWriteFileAtomicModes(t *testing.T) {
	dir := t.TempDir()
	write := func(w io.Writer) error {
		_, err := io.WriteString(w, "contents")
		return err
	}
	mode := func(path string) os.FileMode {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}

	ref := filepath.Join(dir, "ref")
	if err := os.WriteFile(ref, []byte("contents"), 0o666); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "new")
	if err := WriteFileAtomic(path, write); err != nil {
		t.Fatal(err)
	}
	if got, want := mode(path), mode(ref); got != want {
		t.Errorf("new file mode %v, os.WriteFile gives %v", got, want)
	}

	kept := filepath.Join(dir, "kept")
	if err := os.WriteFile(kept, []byte("old"), 0o640); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(kept, 0o640); err != nil { // whatever the umask
		t.Fatal(err)
	}
	if err := WriteFileAtomic(kept, write); err != nil {
		t.Fatal(err)
	}
	if got := mode(kept); got != 0o640 {
		t.Errorf("rewritten 0640 file has mode %v", got)
	}
	if data, err := os.ReadFile(kept); err != nil || string(data) != "contents" {
		t.Fatalf("content = %q, err %v", data, err)
	}
}

// TestWriteFileAtomicConcurrent: writes racing to one path take distinct
// temp names, so every one succeeds, the file ends whole, and no temp file
// is left behind.
func TestWriteFileAtomicConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	const writers = 8
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			errs <- WriteFileAtomic(path, func(w io.Writer) error {
				_, err := io.WriteString(w, strings.Repeat(string(rune('a'+i)), 4096))
				return err
			})
		}(i)
	}
	for i := 0; i < writers; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4096 || strings.Count(string(data), string(data[:1])) != 4096 {
		t.Errorf("file holds %d bytes from more than one writer", len(data))
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("dir has %d entries, want just the target", len(entries))
	}
}
