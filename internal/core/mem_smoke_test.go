package core

import (
	"io"
	"os"
	"strconv"
	"testing"

	"securepki/internal/obs"
)

// TestMemSmoke is the memory-envelope regression gate behind `make
// mem-smoke`: it streams a population ~50× the chunk-sweep golden's through
// StreamSnapshot, lint column included, on a small spill budget and fails if
// the build's sampled heap high-water (the mem.heap_high_water gauge) —
// or, where getrusage(2) is exposed, the process peak RSS — exceeds its
// ceiling. A resident pipeline at this size holds every host and
// observation live at once; the streaming path must not, so a leak back
// toward resident behaviour trips the ceiling long before it ooms a real
// 10⁶-device run. The ceilings sit well above this build's 16–23 MiB heap
// and 42–45 MiB RSS (45,137 certificates), and below the 56–71 MiB and
// 97–99 MiB a lint that keeps every finding until one final sort reaches.
//
// Knobs (all env vars):
//
//	MEM_SMOKE=1          enable (skipped otherwise; see `make mem-smoke`)
//	MEM_SMOKE_DEVICES=n  device population (default 12000; sites scale at n/3)
//	MEM_SMOKE_HEAP_MB=n  heap high-water ceiling in MiB (default 50)
//	MEM_SMOKE_RSS_MB=n   process peak-RSS ceiling in MiB (default 80)
func TestMemSmoke(t *testing.T) {
	if os.Getenv("MEM_SMOKE") == "" {
		t.Skip("memory smoke is opt-in: set MEM_SMOKE=1 or run `make mem-smoke`")
	}
	devices := envInt(t, "MEM_SMOKE_DEVICES", 12000)
	heapCeil := int64(envInt(t, "MEM_SMOKE_HEAP_MB", 50)) << 20
	rssCeil := int64(envInt(t, "MEM_SMOKE_RSS_MB", 80)) << 20

	cfg := SmallConfig()
	cfg.World.NumDevices = devices
	cfg.World.NumSites = devices / 3
	cfg.Stream.ChunkSize = 2048
	cfg.Stream.MemBudget = 4 << 20
	cfg.Stream.SpillDir = t.TempDir()
	reg := obs.NewRegistry()
	cfg.Obs = reg

	stats, err := StreamSnapshot(cfg, true, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Spills == 0 {
		t.Errorf("4 MiB budget spilled nothing over %d hosts: the bounded path is not being exercised", stats.Hosts)
	}
	heap := reg.Gauge("mem.heap_high_water").Value()
	t.Logf("streamed %d hosts / %d certs / %d scans in %d chunks (%d spills, %d MiB spilled); heap high-water %d MiB",
		stats.Hosts, stats.Certs, stats.Scans, stats.Chunks, stats.Spills, stats.SpilledBytes>>20, heap>>20)
	if heap > heapCeil {
		t.Errorf("heap high-water %d MiB exceeds the %d MiB ceiling", heap>>20, heapCeil>>20)
	}
	if rss, ok := obs.PeakRSS(); ok {
		t.Logf("process peak RSS %d MiB", rss>>20)
		if rss > rssCeil {
			t.Errorf("peak RSS %d MiB exceeds the %d MiB ceiling", rss>>20, rssCeil>>20)
		}
	}
}

func envInt(t *testing.T, name string, def int) int {
	t.Helper()
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		t.Fatalf("%s=%q: want a positive integer", name, v)
	}
	return n
}
