package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"securepki/internal/core"
)

// TestUpgradeInPlaceFailureKeepsInput: an in-place -upgrade whose write
// fails after the output was opened must leave its input — the only copy —
// byte-identical. The routing dump below parses but announces an AS number
// the v3 writer rejects only once it is encoding the index.
func TestUpgradeInPlaceFailureKeepsInput(t *testing.T) {
	dir := t.TempDir()
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
	if err := p.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	corpus := filepath.Join(dir, "c.spki")
	bad := filepath.Join(dir, "bad.prefix2as")
	if err := os.WriteFile(corpus, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("0.0.0.0 1 -1\n128.0.0.0 1 -1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	err := upgradeSnapshot(corpus, corpus, "v3", 0, bad, "", "")
	if err == nil || !strings.Contains(err.Error(), "outside uint32") {
		t.Fatalf("upgrade err = %v, want the writer's AS-number error", err)
	}
	got, err := os.ReadFile(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, snap.Bytes()) {
		t.Fatalf("failed upgrade left its input at %d bytes, was %d", len(got), snap.Len())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("dir holds %d entries after the failed upgrade, want the input and the dump", len(entries))
	}
}
