package main

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"fmt"
	"io"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	"securepki/internal/devicesim"
	"securepki/internal/faultnet"
	"securepki/internal/snapshot"
	"securepki/internal/wire"
	"securepki/internal/x509lite"
)

// fakeClock is an injected deterministic clock: every call advances one
// minute from a fixed epoch, so two runs see identical timestamps no matter
// how long they really take.
func fakeClock() func() time.Time {
	var mu sync.Mutex
	t := time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Minute)
		return t
	}
}

func noPause(time.Duration) {}

func noSleep(ctx context.Context, d time.Duration) error { return nil }

// deviceChains builds n deterministic single-cert chains from the simulated
// device population.
func deviceChains(t *testing.T, n int) [][][]byte {
	t.Helper()
	cfg := devicesim.DefaultConfig()
	cfg.Seed = 1
	cfg.NumDevices = n * 4
	cfg.NumSites = 4
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

// startServers serves the chains on loopback; when chaos is non-nil each
// listener is wrapped with the fault policy, keyed by its target index.
func startServers(t *testing.T, chains [][][]byte, chaos *faultnet.Policy) []string {
	t.Helper()
	targets := make([]string, len(chains))
	for i, chain := range chains {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var l net.Listener = ln
		if chaos != nil {
			l = faultnet.Wrap(ln, *chaos, uint64(i))
		}
		srv, err := wire.Serve(l, wire.StaticChain(chain))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		targets[i] = srv.Addr()
	}
	return targets
}

// TestChaosMatrixSnapshotIdentical is the headline determinism proof: a full
// certscan sweep against a 30%-faulty population produces a corpus snapshot
// byte-identical to the clean run, at every tested worker count. Two things
// make it true: faultnet's MaxConsecutive cap guarantees bounded retries
// converge, and the corpus/snapshot layers are worker-count-independent.
func TestChaosMatrixSnapshotIdentical(t *testing.T) {
	chains := deviceChains(t, 14)

	run := func(chaos *faultnet.Policy, workers int) ([]byte, sweepSummary) {
		targets := startServers(t, chains, chaos)
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
			t.Fatalf("sweep failed to converge: %+v", summary)
		}
		var buf bytes.Buffer
		if err := snapshot.WriteV3(&buf, corpus, snapshot.Options{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), summary
	}

	clean, _ := run(nil, 4)

	chaosRetries := 0
	for _, workers := range []int{1, 4, 16} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			policy := &faultnet.Policy{
				Seed:           99,
				Rate:           0.3,
				MaxConsecutive: 2,
				Sleep:          func(time.Duration) {}, // slow-loris pacing on a no-op clock
			}
			snap, summary := run(policy, workers)
			if !bytes.Equal(snap, clean) {
				t.Errorf("chaos snapshot (%d bytes) differs from clean snapshot (%d bytes) at %d workers",
					len(snap), len(clean), workers)
			}
			chaosRetries += summary.Retries
		})
	}
	if chaosRetries == 0 {
		t.Error("chaos runs never retried; the fault policy injected nothing")
	}
}

// selfSignedDER builds a parseable self-signed certificate the empty trust
// store classifies as self-signed.
func selfSignedDER(t *testing.T, cn string, seedByte byte) []byte {
	t.Helper()
	seed := make([]byte, ed25519.SeedSize)
	seed[0] = seedByte
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	name := x509lite.Name{Organization: "Golden", CommonName: cn}
	der, err := x509lite.CreateCertificate(&x509lite.Template{
		Version:      3,
		SerialNumber: big.NewInt(int64(seedByte)),
		Subject:      name,
		Issuer:       name,
		NotBefore:    time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
	}, pub, priv)
	if err != nil {
		t.Fatal(err)
	}
	return der
}

// TestJSONSummaryGolden pins the -json summary bytes for a fully
// deterministic run: two healthy self-signed endpoints, one endpoint serving
// unparseable certificate bytes (terminal malformed-cert), and one dead port
// (retried once, then a refusal failure).
func TestJSONSummaryGolden(t *testing.T) {
	targets := startServers(t, [][][]byte{
		{selfSignedDER(t, "golden-a", 1)},
		{selfSignedDER(t, "golden-b", 2)},
		{[]byte("these bytes are not DER and never will be")},
	}, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	targets = append(targets, dead)

	cfg := scanConfig{
		Targets: targets,
		Workers: 1,
		Repeat:  1,
		Opts: wire.Options{
			AttemptTimeout: 500 * time.Millisecond,
			Retries:        1,
			Seed:           5,
			Sleep:          noSleep,
		},
		Now:   fakeClock(),
		Pause: noPause,
	}
	_, summary, err := runSweeps(cfg, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeJSONSummary(&buf, summary); err != nil {
		t.Fatal(err)
	}
	want := `{
  "sweeps": 1,
  "targets": 4,
  "ok": 3,
  "failed": 1,
  "attempts": 5,
  "retries": 1,
  "rotated": 0,
  "statuses": {
    "self-signed": 2
  },
  "reasons": {
    "fail:malformed-cert": 1,
    "fail:refused": 1,
    "retry:refused": 1
  }
}
`
	if buf.String() != want {
		t.Errorf("summary JSON mismatch:\n got: %s\nwant: %s", buf.String(), want)
	}
}
