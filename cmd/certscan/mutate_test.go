package main

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"securepki/internal/devicesim"
	"securepki/internal/faultnet"
	"securepki/internal/snapshot"
	"securepki/internal/wire"
	"securepki/internal/x509lite"
)

// mutatedDeviceChains builds n single-cert chains from a device population
// with the frankencert mutator dialled to the given fraction. Same world
// seed as deviceChains, so the two populations differ only where the
// mutation schedule fired.
func mutatedDeviceChains(t *testing.T, n int, frac float64) [][][]byte {
	t.Helper()
	cfg := devicesim.DefaultConfig()
	cfg.Seed = 1
	cfg.NumDevices = n * 4
	cfg.NumSites = 4
	cfg.MutateFrac = frac
	cfg.MutateSeed = 20160814
	world, err := devicesim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(world.Devices) < n {
		t.Fatalf("world has %d devices, need %d", len(world.Devices), n)
	}
	chains := make([][][]byte, n)
	for i := 0; i < n; i++ {
		chains[i] = [][]byte{world.Devices[i].CurrentCert().Raw}
	}
	return chains
}

// TestMutatedChaosSweep is the adversarial twin of
// TestChaosMatrixSnapshotIdentical: the served population is 30%
// frankencert mutants AND 30% of connections fault. The sweep must still
// converge, every harvested certificate (mutant or not) must reach the
// corpus intact, and the snapshot must be byte-identical across worker
// counts 1 and 16 — malformed DER gets no special path anywhere in the
// scanner, corpus or container.
func TestMutatedChaosSweep(t *testing.T) {
	const n = 14
	clean := deviceChains(t, n)
	chains := mutatedDeviceChains(t, n, 0.3)

	// The mutated population must actually contain mutants: some chains
	// differ from the clean same-seed world, and every one still parses
	// under the lenient measurement parser (population-class operators
	// preserve parseability by contract).
	changed := 0
	for i := range chains {
		if !bytes.Equal(chains[i][0], clean[i][0]) {
			changed++
		}
		if _, err := x509lite.Parse(chains[i][0]); err != nil {
			t.Fatalf("mutated chain %d unparseable: %v", i, err)
		}
	}
	if changed == 0 {
		t.Fatal("no chains mutated at frac 0.3; the mutator is not wired into devicesim")
	}

	run := func(workers int) []byte {
		policy := &faultnet.Policy{
			Seed:           99,
			Rate:           0.3,
			MaxConsecutive: 2,
			Sleep:          func(time.Duration) {}, // slow-loris pacing on a no-op clock
		}
		targets := startServers(t, chains, policy)
		cfg := scanConfig{
			Targets: targets,
			Workers: workers,
			Repeat:  2,
			Opts: wire.Options{
				AttemptTimeout: 500 * time.Millisecond,
				Retries:        4,
				Seed:           7,
				Sleep:          noSleep,
			},
			BuildCorpus: true,
			Now:         fakeClock(),
			Pause:       noPause,
		}
		corpus, summary, err := runSweeps(cfg, io.Discard, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if summary.Failed != 0 {
			t.Fatalf("workers=%d: mutated sweep failed to converge: %+v", workers, summary)
		}
		var buf bytes.Buffer
		if err := snapshot.WriteV3(&buf, corpus, snapshot.Options{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var ref []byte
	for _, workers := range []int{1, 16} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			snap := run(workers)
			if ref == nil {
				ref = snap
				return
			}
			if !bytes.Equal(snap, ref) {
				t.Errorf("mutated chaos snapshot differs across worker counts (%d vs %d bytes)",
					len(snap), len(ref))
			}
		})
	}

	// The mutants must survive the wire round trip: the snapshot of the
	// mutated population cannot equal a snapshot of the clean one.
	cleanTargets := startServers(t, clean, nil)
	cfg := scanConfig{
		Targets: cleanTargets,
		Workers: 4,
		Repeat:  2,
		Opts: wire.Options{
			AttemptTimeout: 500 * time.Millisecond,
			Retries:        4,
			Seed:           7,
			Sleep:          noSleep,
		},
		BuildCorpus: true,
		Now:         fakeClock(),
		Pause:       noPause,
	}
	corpus, _, err := runSweeps(cfg, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var cleanBuf bytes.Buffer
	if err := snapshot.WriteV3(&cleanBuf, corpus, snapshot.Options{}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(cleanBuf.Bytes(), ref) {
		t.Error("mutated and clean sweeps produced identical snapshots; mutants were lost on the wire")
	}
}
