package core

import (
	"bytes"
	"io"
	"maps"
	"testing"

	"securepki/internal/certlint"
	"securepki/internal/obs"
	"securepki/internal/scanstore"
	"securepki/internal/snapshot"
	"securepki/internal/x509lite"
)

// TestSharedKeysCensusBothPaths: the census each build path hands the
// shared-key linter equals the full per-key count map restricted to keys
// more than one certificate carries — on the resident path from the
// corpus, on the streamed path from a StreamWriter's SPKI table, which the
// writer keeps past Finish.
func TestSharedKeysCensusBothPaths(t *testing.T) {
	p := &Pipeline{Config: streamEquivConfig()}
	if err := p.Generate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Scan(); err != nil {
		t.Fatal(err)
	}
	recs := p.Corpus.Certs()
	full := make(map[x509lite.Fingerprint]int)
	for _, rec := range recs {
		full[rec.Cert.PublicKeyFingerprint()]++
	}
	want := make(map[x509lite.Fingerprint]int)
	for k, n := range full {
		if n > 1 {
			want[k] = n
		}
	}
	if len(want) == 0 || len(want) == len(full) {
		t.Fatalf("%d shared keys of %d: the world no longer exercises the census", len(want), len(full))
	}

	resident := certlint.SharedKeys(len(recs), func(i int) x509lite.Fingerprint { return recs[i].Cert.PublicKeyFingerprint() })
	if !maps.Equal(resident, want) {
		t.Errorf("resident census: %d keys, want the %d shared of %d", len(resident), len(want), len(full))
	}
	sw, err := snapshot.NewStreamWriter(snapshot.Options{}, snapshot.StreamWriterConfig{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	for _, rec := range recs {
		if _, err := sw.Add(rec.Cert.Raw, rec.Cert.Fingerprint(), rec.Cert.PublicKeyFingerprint()); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	streamed := certlint.SharedKeys(sw.NumCerts(), func(i int) x509lite.Fingerprint { return sw.SPKI(scanstore.CertID(i)) })
	if !maps.Equal(streamed, want) {
		t.Errorf("streamed census: %d keys, want the %d shared of %d", len(streamed), len(want), len(full))
	}
}

// TestStreamLintSpillsRuns: at TestStreamSnapshotMatchesInMemory's 64 KiB
// budget the streamed lint spills sorted finding runs, and the column they
// merge into is still the resident one, byte for byte.
func TestStreamLintSpillsRuns(t *testing.T) {
	_, wantLint := inMemoryArtifacts(t, streamEquivConfig())
	for _, workers := range []int{1, 4} {
		cfg := streamEquivConfig()
		cfg.Workers = workers
		cfg.Stream = StreamConfig{ChunkSize: 64, MemBudget: 1 << 16, SpillDir: t.TempDir()}
		reg := obs.NewRegistry()
		cfg.Obs = reg
		var lint bytes.Buffer
		if _, err := StreamSnapshot(cfg, true, io.Discard, &lint); err != nil {
			t.Fatal(err)
		}
		if runs := reg.Gauge("mem.lint_runs").Value(); runs < 2 {
			t.Errorf("workers=%d: %d lint runs spilled at a 64 KiB budget, want several", workers, runs)
		}
		if !bytes.Equal(lint.Bytes(), wantLint) {
			t.Errorf("workers=%d: merged lint column differs from the resident one", workers)
		}
	}
}
