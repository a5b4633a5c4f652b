package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"securepki/internal/core"
	"securepki/internal/snapshot"
)

// smallSnapshot writes a small generated corpus, AS index included, to
// dir/c.spki and returns its path and bytes.
func smallSnapshot(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	cfg := core.SmallConfig()
	cfg.World.NumDevices, cfg.World.NumSites = 60, 20
	cfg.Scan.UMichScans, cfg.Scan.Rapid7Scans = 2, 1
	p := &core.Pipeline{Config: cfg}
	if err := p.Generate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Scan(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := p.WriteSnapshotV3(&snap); err != nil {
		t.Fatal(err)
	}
	corpus := filepath.Join(dir, "c.spki")
	if err := os.WriteFile(corpus, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return corpus, snap.Bytes()
}

// TestUpgradeInPlaceFailureKeepsInput: an in-place -upgrade whose write
// fails after the output was opened must leave its input — the only copy —
// byte-identical. The routing dump below parses but announces an AS number
// the writer rejects only once it is encoding the index.
func TestUpgradeInPlaceFailureKeepsInput(t *testing.T) {
	dir := t.TempDir()
	corpus, snap := smallSnapshot(t, dir)
	bad := filepath.Join(dir, "bad.prefix2as")
	if err := os.WriteFile(bad, []byte("0.0.0.0 1 -1\n128.0.0.0 1 -1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	err := upgradeSnapshot(corpus, corpus, 0, bad, "", "")
	if err == nil || !strings.Contains(err.Error(), "outside uint32") {
		t.Fatalf("upgrade err = %v, want the writer's AS-number error", err)
	}
	got, err := os.ReadFile(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, snap) {
		t.Fatalf("failed upgrade left its input at %d bytes, was %d", len(got), len(snap))
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("dir holds %d entries after the failed upgrade, want the input and the dump", len(entries))
	}
}

// TestUpgradeWithoutPrefix2asKeepsInput: re-indexing from a routing dump is
// -upgrade's only job, so without -prefix2as it must fail and leave its input
// — AS index included — byte-identical, not rewrite it with the AS section
// emptied.
func TestUpgradeWithoutPrefix2asKeepsInput(t *testing.T) {
	dir := t.TempDir()
	corpus, snap := smallSnapshot(t, dir)
	lay, err := snapshot.ReadV3Layout(bytes.NewReader(snap), int64(len(snap)))
	if err != nil {
		t.Fatal(err)
	}
	if lay.Sections[snapshot.V3KindAS-1].KeyCount == 0 {
		t.Fatal("the generated snapshot has no AS index to lose")
	}

	err = upgradeSnapshot(corpus, corpus, 0, "", "", "")
	if err == nil || !strings.Contains(err.Error(), "-prefix2as") {
		t.Fatalf("upgrade err = %v, want a missing -prefix2as error", err)
	}
	got, err := os.ReadFile(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, snap) {
		t.Fatalf("refused upgrade rewrote its input: %d bytes, was %d", len(got), len(snap))
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("dir holds %d entries after the refused upgrade, want the input alone", len(entries))
	}
}
