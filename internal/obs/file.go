package obs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// WriteMetricsFile renders the registry's full snapshot (volatile metrics
// included — a metrics file is a run artefact, not a golden) as the
// versioned JSON document at path. Every cmd's -metrics-out flag funnels
// here so the on-disk schema cannot drift between binaries.
//
// The write is crash-safe: the document lands in a temp file in the same
// directory and is renamed over path only after a successful write+sync, so
// a killed process leaves either the old file or the new one — never a torn
// half-document that would fail ValidateMetrics downstream.
func WriteMetricsFile(path string, reg *Registry) error {
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		return reg.Snapshot().WriteJSON(w)
	}); err != nil {
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	return nil
}

// WriteFileAtomic writes whatever write produces to path via a same-
// directory temp file and an atomic rename. A new file gets the mode
// os.WriteFile(path, b, 0o666) gives it under the process umask; a replaced
// file keeps its mode. On any error — a short write included — the temp
// file is removed and path is left exactly as it was.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "." // not the OS temp dir: the rename must stay in one directory
	}
	f, err := createTemp(dir, base)
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Take the replaced file's mode before a byte is written, so the temp
	// file never shows its contents to more readers than path does.
	if fi, err := os.Stat(path); err == nil {
		if err := f.Chmod(fi.Mode().Perm()); err != nil {
			return cleanup(err)
		}
	}
	if err := write(f); err != nil {
		return cleanup(err)
	}
	// Sync before rename: the rename must not be durable before the bytes.
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// createTemp creates a new file base.tmp-<pid>-<n> in dir, at the lowest n
// no file holds, with mode 0o666 under the umask, as os.WriteFile creates
// one (os.CreateTemp's is 0o600). The name comes from the process ID, not a
// random source; O_EXCL passes over a name that a concurrent write, or a
// crashed process, holds.
func createTemp(dir, base string) (*os.File, error) {
	prefix := filepath.Join(dir, fmt.Sprintf("%s.tmp-%d-", base, os.Getpid()))
	for n := 0; ; n++ {
		f, err := os.OpenFile(prefix+strconv.Itoa(n), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) || n == 10000 {
			return f, err
		}
	}
}

// WriteTraceFile opens path for a tracer to append span lines to; the
// caller owns closing it. Trace and event journals are append-only JSONL —
// a torn final line is inherent to crash semantics and every reader
// tolerates it — so they do not take the atomic-rename path.
func WriteTraceFile(path string) (*os.File, error) {
	return os.Create(path)
}
