package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"securepki/internal/snapshot"
)

// streamEquivConfig shrinks the world so the chunk × worker sweep stays
// fast; equivalence, not distribution fidelity, is under test.
func streamEquivConfig() Config {
	cfg := SmallConfig()
	cfg.World.NumDevices = 220
	cfg.World.NumSites = 90
	cfg.Scan.UMichScans = 6
	cfg.Scan.Rapid7Scans = 3
	return cfg
}

// inMemoryArtifacts runs the resident pipeline and returns its snapshot and
// lint column bytes — the reference the streaming path must reproduce
// exactly.
func inMemoryArtifacts(t *testing.T, cfg Config) (v3, lint []byte) {
	t.Helper()
	p := &Pipeline{Config: cfg}
	if err := p.Generate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Scan(); err != nil {
		t.Fatal(err)
	}
	p.Lint()
	var v3buf, lintBuf bytes.Buffer
	if err := p.WriteSnapshotV3(&v3buf); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteLintColumn(&lintBuf); err != nil {
		t.Fatal(err)
	}
	return v3buf.Bytes(), lintBuf.Bytes()
}

// TestStreamSnapshotMatchesInMemory is the streaming build's golden: at
// chunk sizes that split every fleet (1), land mid-population (64) and
// swallow the whole corpus (1<<20), across worker counts 1, 4 and 16, the
// streamed snapshot and lint column must be byte-identical to the in-memory
// pipeline's. A tiny memory budget forces the chunk store
// and sorters through their spill paths on the same sweep. The mutated row
// runs the same matrix over a 30%-frankencert population (internal/certmutate
// via devicesim), proving the determinism contract holds for malformed DER
// through the chunked path too.
func TestStreamSnapshotMatchesInMemory(t *testing.T) {
	// Both paths share the scan sweep and the lint driver, so the reference
	// itself is pinned too (pins): the lint column's SHA-256, then the v3
	// file's five index-section checksums, none of which depend on gzip.
	rows := []struct {
		name   string
		adjust func(*Config)
		pins   []string
	}{
		{"clean", func(*Config) {}, []string{
			"b4d6ea99491336ccd7f1a5a480c6c3a1ea8006558da9a8d9d666b293c875c66f",
			"55cb9e6c8d64166f254212e8f4c78a34dcea1e425bf40d7ad371236bbe997f48",
			"98655e7258dba320d4181d8e0706007aaa6dd4f1cb6159383463b2a87af0830c",
			"d54e0d17ca8880b01071b0851ed7599a6215e2dab190eff97224f21d0df44b1e",
			"d4cb2e7ea84e293c2a5c4418a2ff221f49d7009da0fa9f6eb6a513977b7bb116",
			"de92700f1d6fd4a2bd7eb54f9c0c5ddc36302a8c5cee76313903bfb1fef911df",
		}},
		{"mutated", func(cfg *Config) {
			cfg.World.MutateFrac = 0.3
			cfg.World.MutateSeed = 20160814
		}, []string{
			"6b059b5cde67a86a4cf09ab17d2ac27387b1268390fe34ec16bf17375af1d72d",
			"907f96551fbbef7892d3da4131ce224a66874fbb243e8f30f93f678bf8253892",
			"655782c22654905516dd53a5a0beef1d742df8ae235d764602aaeef058af9ff3",
			"ae4d8d46612eb84d6710e7d79912177a4df4a24f15d48b04467dd81eeee51b16",
			"4090283ca50689e8b7396c667336ff2ee5495410ac60de7ff2bc24e14c517e44",
			"de92700f1d6fd4a2bd7eb54f9c0c5ddc36302a8c5cee76313903bfb1fef911df",
		}},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			base := streamEquivConfig()
			row.adjust(&base)
			wantV3, wantLint := inMemoryArtifacts(t, base)
			lay, err := snapshot.ReadV3Layout(bytes.NewReader(wantV3), int64(len(wantV3)))
			if err != nil {
				t.Fatal(err)
			}
			got := []string{fmt.Sprintf("%x", sha256.Sum256(wantLint))}
			for _, sec := range lay.Sections {
				got = append(got, fmt.Sprintf("%x", sec.Sum))
			}
			if !slices.Equal(got, row.pins) {
				t.Errorf("reference lint SHA-256 and v3 section checksums moved:\n got %q\nwant %q", got, row.pins)
			}

			for _, chunk := range []int{1, 64, 1 << 20} {
				for _, workers := range []int{1, 4, 16} {
					cfg := streamEquivConfig()
					row.adjust(&cfg)
					cfg.Workers = workers
					cfg.Stream.ChunkSize = chunk
					cfg.Stream.SpillDir = t.TempDir()
					if chunk == 64 {
						cfg.Stream.MemBudget = 1 << 16 // force chunk-store and sorter spills
					}

					var v3buf, lintBuf bytes.Buffer
					stats, err := StreamSnapshot(cfg, true, &v3buf, &lintBuf)
					if err != nil {
						t.Fatalf("chunk=%d workers=%d: %v", chunk, workers, err)
					}
					if !bytes.Equal(wantV3, v3buf.Bytes()) {
						t.Fatalf("chunk=%d workers=%d: streamed v3 differs from in-memory (%d vs %d bytes)",
							chunk, workers, len(wantV3), len(v3buf.Bytes()))
					}
					if !bytes.Equal(wantLint, lintBuf.Bytes()) {
						t.Fatalf("chunk=%d workers=%d: streamed lint column differs from in-memory", chunk, workers)
					}
					if chunk == 64 && cfg.Stream.MemBudget > 0 && stats.Spills == 0 {
						t.Fatalf("chunk=%d workers=%d: 64 KiB budget spilled nothing", chunk, workers)
					}
				}
			}
		})
	}
}

// TestStreamSnapshotStats sanity-checks the reported stats on a spilling run.
func TestStreamSnapshotStats(t *testing.T) {
	cfg := streamEquivConfig()
	cfg.Stream.ChunkSize = 32
	cfg.Stream.MemBudget = 1 << 14
	cfg.Stream.SpillDir = t.TempDir()
	var buf bytes.Buffer
	stats, err := StreamSnapshot(cfg, true, &buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hosts != cfg.World.NumDevices+cfg.World.NumSites {
		t.Fatalf("stats.Hosts = %d, want %d", stats.Hosts, cfg.World.NumDevices+cfg.World.NumSites)
	}
	if stats.Chunks < stats.Hosts/32 {
		t.Fatalf("stats.Chunks = %d for %d hosts at chunk 32", stats.Chunks, stats.Hosts)
	}
	if stats.Spills == 0 || stats.SpilledBytes == 0 {
		t.Fatalf("16 KiB budget spilled nothing (spills=%d bytes=%d)", stats.Spills, stats.SpilledBytes)
	}
	if stats.Certs == 0 || stats.Scans != 9 {
		t.Fatalf("stats certs=%d scans=%d", stats.Certs, stats.Scans)
	}
	if stats.MergeFanIn < 1 {
		t.Fatalf("stats.MergeFanIn = %d on a v3 run", stats.MergeFanIn)
	}
}

// TestStreamSnapshotV3Only: snapshot v3 is the only format, so asking
// StreamSnapshot for anything else is an error, not a silent v3.
func TestStreamSnapshotV3Only(t *testing.T) {
	var snap bytes.Buffer
	if _, err := StreamSnapshot(streamEquivConfig(), false, &snap, nil); err == nil {
		t.Fatal("StreamSnapshot with v3 = false succeeded")
	}
	if snap.Len() != 0 {
		t.Fatalf("StreamSnapshot with v3 = false wrote %d bytes", snap.Len())
	}
}
