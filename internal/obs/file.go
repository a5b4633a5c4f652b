package obs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
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
// directory temp file and an atomic rename. On any error — a short write
// included — the temp file is removed and path is left exactly as it was.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "." // not CreateTemp's default: the rename must stay in one directory
	}
	f, err := os.CreateTemp(dir, base+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
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

// WriteTraceFile opens path for a tracer to append span lines to; the
// caller owns closing it. Trace and event journals are append-only JSONL —
// a torn final line is inherent to crash semantics and every reader
// tolerates it — so they do not take the atomic-rename path.
func WriteTraceFile(path string) (*os.File, error) {
	return os.Create(path)
}
