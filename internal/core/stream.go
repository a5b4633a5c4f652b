package core

import (
	"fmt"
	"io"
	"runtime"

	"securepki/internal/certlint"
	"securepki/internal/devicesim"
	"securepki/internal/netsim"
	"securepki/internal/obs"
	"securepki/internal/parallel"
	"securepki/internal/scanner"
	"securepki/internal/scanstore"
	"securepki/internal/snapshot"
	"securepki/internal/x509lite"
)

// StreamConfig sizes the streaming build path (Config.Stream). The zero
// value streams with the defaults: 8192-host chunks, 256 MiB budgets, spills
// in the OS temp dir.
type StreamConfig struct {
	// ChunkSize is how many hosts each population chunk holds (<= 0 means
	// 8192). Output bytes are identical at every setting.
	ChunkSize int
	// MemBudget bounds, in bytes, both the chunk store's live set and the
	// snapshot writer's sorter buffers (<= 0 means 256 MiB each).
	MemBudget int64
	// SpillDir hosts every spill file ("" means the OS temp dir).
	SpillDir string
}

// StreamStats summarises one streaming build for callers and tests.
type StreamStats struct {
	Hosts        int
	Chunks       int
	Spills       int
	SpilledBytes int64
	Certs        int
	Scans        int
	MergeFanIn   int
}

// StreamSnapshot runs generate → scan → snapshot (→ lint) end to end on the
// streaming path: the population is drawn in chunks from a
// devicesim.Generator, scan results accumulate in a budget-bounded
// scanner.ChunkStore, and the snapshot assembles through a
// snapshot.StreamWriter whose bulky state lives on disk. No resident world,
// corpus or index exists at any point, yet the bytes written to snapW (v2,
// or v3 when v3 is true) and lintW (the lint sidecar column; nil skips the
// lint pass) are identical to the in-memory pipeline's at any chunk size and
// worker count — the streaming goldens pin this.
//
// Its five stages (core.generate, core.scan, core.replay, core.snapshot,
// core.lint) start through the helper the resident pipeline uses, so they
// set progress.stage, journal stage.start and open a span. The cfg.Obs
// registry also receives the mem.* gauges (live chunks, spilled runs,
// spilled bytes, merge fan-in, and a volatile heap high-water) on top of the
// stage counters the substrates already emit; each chunk spill gets a
// core.spill span and a spill journal event, and the lint column's write a
// lintcol.write event.
func StreamSnapshot(cfg Config, v3 bool, snapW, lintW io.Writer) (*StreamStats, error) {
	reg := cfg.Obs
	stats := &StreamStats{}

	span := cfg.stage("core.generate", stageGenerate)
	gen, err := devicesim.NewGenerator(cfg.World)
	if err != nil {
		return nil, fmt.Errorf("core: stream generate: %w", err)
	}
	stats.Hosts = gen.NumHosts()
	world := gen.World()
	reg.Counter("core.generate.x509.sign").Add(world.Signs())
	reg.Counter("core.generate.x509.keygen").Add(world.Keygens())
	span.End()

	camp, err := scanner.New(world, cfg.Scan)
	if err != nil {
		return nil, fmt.Errorf("core: stream scan: %w", err)
	}
	sched := camp.Schedule()

	store := scanner.NewChunkStore(len(sched), cfg.Stream.MemBudget, cfg.Stream.SpillDir)
	defer store.Close()
	liveGauge := reg.Gauge("mem.live_chunks")
	spillGauge := reg.Gauge("mem.spilled_runs")
	spillBytes := reg.Gauge("mem.spilled_bytes")
	store.OnSpill = func(chunk int, n int64) {
		sp := cfg.Tracer.Start("core.spill")
		liveGauge.Set(int64(store.LiveChunks()))
		spillGauge.Set(int64(store.Spills()))
		spillBytes.Set(store.SpilledBytes())
		// Chunks spill from the serial chunk loop, at a point fixed by the
		// chunk sizes, so these events are worker-count-independent too.
		cfg.Journal.Emit("spill",
			"chunk", fmt.Sprint(chunk),
			"run", fmt.Sprint(store.Spills()),
			"bytes", fmt.Sprint(n))
		sp.End()
	}

	span = cfg.stage("core.scan", stageScan)
	signs, keygens := world.Signs(), world.Keygens()
	if err := camp.StreamRun(gen, cfg.Stream.ChunkSize, store); err != nil {
		return nil, fmt.Errorf("core: stream scan: %w", err)
	}
	liveGauge.Set(int64(store.LiveChunks()))
	stats.Chunks = store.NumChunks()
	reg.Counter("core.scan.scans").Add(int64(len(sched)))
	reg.Counter("core.scan.x509.sign").Add(world.Signs() - signs)
	reg.Counter("core.scan.x509.keygen").Add(world.Keygens() - keygens)
	span.End()
	readHeapHighWater(reg)

	opt := snapshot.Options{Workers: cfg.Workers, Obs: cfg.Obs}
	if v3 {
		opt.ASOf = snapshot.InternetASOf(world.Internet)
	}
	sw, err := snapshot.NewStreamWriter(opt, snapshot.StreamWriterConfig{
		SpillDir:  cfg.Stream.SpillDir,
		MemBudget: cfg.Stream.MemBudget,
		V3:        v3,
		KeepDERs:  lintW != nil,
	})
	if err != nil {
		return nil, fmt.Errorf("core: stream snapshot: %w", err)
	}
	defer sw.Close()

	// Scan-major replay: for each scan, every chunk's section in chunk order.
	// A chunk's new-cert lists replay in the order its local IDs were
	// assigned, so maps[k] incrementally extends to translate local IDs; the
	// global intern order this produces is exactly the in-memory path's.
	span = cfg.stage("core.replay", stageReplay)
	var obsCount int64
	maps := make([][]scanstore.CertID, store.NumChunks())
	for s := range sched {
		if err := sw.BeginScan(sched[s].Operator, sched[s].Time); err != nil {
			return nil, fmt.Errorf("core: stream replay: %w", err)
		}
		for k := 0; k < store.NumChunks(); k++ {
			certs, obsRecs, err := store.Section(k, s)
			if err != nil {
				return nil, fmt.Errorf("core: stream replay: %w", err)
			}
			for _, nc := range certs {
				id, _, err := sw.Intern(nc.DER, nc.FP, nc.SPKI)
				if err != nil {
					return nil, fmt.Errorf("core: stream replay: %w", err)
				}
				maps[k] = append(maps[k], id)
			}
			for _, o := range obsRecs {
				if int(o.Local) >= len(maps[k]) {
					return nil, fmt.Errorf("core: stream replay: chunk %d references local cert %d of %d", k, o.Local, len(maps[k]))
				}
				if err := sw.AddObs(maps[k][o.Local], netsim.IP(o.IP)); err != nil {
					return nil, fmt.Errorf("core: stream replay: %w", err)
				}
				obsCount++
			}
		}
	}
	span.End()
	stats.Spills = store.Spills()
	stats.SpilledBytes = store.SpilledBytes()
	stats.Certs = sw.NumCerts()
	stats.Scans = len(sched)
	stats.MergeFanIn = sw.MergeFanIn()
	reg.Counter("core.scan.observations").Add(obsCount)
	reg.Counter("core.corpus.certs").Add(int64(sw.NumCerts()))
	reg.Gauge("mem.merge_fanin").Set(int64(stats.MergeFanIn))
	readHeapHighWater(reg)

	span = cfg.stage("core.snapshot", stageSnapshot)
	if err := sw.Finish(snapW); err != nil {
		return nil, fmt.Errorf("core: stream snapshot: %w", err)
	}
	span.End()

	if lintW != nil {
		span = cfg.stage("core.lint", stageLint)
		if err := streamLint(sw, cfg, lintW); err != nil {
			return nil, fmt.Errorf("core: stream lint: %w", err)
		}
		span.End()
	}
	readHeapHighWater(reg)
	return stats, nil
}

// streamLint lints the writer's retained DERs and emits the sidecar column,
// byte-identical to Pipeline.Lint + WriteLintColumn: both run lintCorpus.
func streamLint(sw *snapshot.StreamWriter, cfg Config, lintW io.Writer) error {
	results, err := lintCorpus(cfg, sw.NumCerts(),
		func(i int) x509lite.Fingerprint { return sw.SPKI(scanstore.CertID(i)) },
		func(lint func([]*x509lite.Certificate)) error { return parsedBatches(sw, cfg.Workers, lint) })
	if err != nil {
		return err
	}
	if err := snapshot.WriteLintColumn(lintW, results, certlint.Default().Infos()); err != nil {
		return err
	}
	cfg.Journal.Emit("lintcol.write", "certs", fmt.Sprint(len(results)))
	return nil
}

// parsedBatches replays the writer's DERs to fn in batches of 2048
// certificates, each batch parsed across workers, so only one batch of
// parsed certificates is resident.
func parsedBatches(sw *snapshot.StreamWriter, workers int, fn func([]*x509lite.Certificate)) error {
	const batch = 2048
	ders := make([][]byte, 0, batch)
	flush := func() error {
		certs := make([]*x509lite.Certificate, len(ders))
		errs := make([]error, len(ders))
		parallel.ForEach(workers, len(ders), func(i int) {
			certs[i], errs[i] = x509lite.Parse(ders[i])
		})
		for i, err := range errs {
			if err != nil {
				// The DER came out of a checksummed spill of certs the scan
				// itself parsed; a parse failure here is corruption.
				return fmt.Errorf("lint batch: certificate %d failed to parse: %w", i, err)
			}
		}
		fn(certs)
		ders = ders[:0]
		return nil
	}
	err := sw.EachCert(func(_ scanstore.CertID, _, _ x509lite.Fingerprint, der []byte) error {
		ders = append(ders, append([]byte(nil), der...))
		if len(ders) == batch {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// readHeapHighWater samples the heap high-water mark into a volatile gauge.
// Scheduling and GC timing make the value non-deterministic, which is
// exactly what obs.Volatile marks it as; golden comparisons skip it.
func readHeapHighWater(reg *obs.Registry) {
	if reg == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g := reg.Gauge("mem.heap_high_water", obs.Volatile)
	if int64(ms.HeapAlloc) > g.Value() {
		g.Set(int64(ms.HeapAlloc))
	}
}
