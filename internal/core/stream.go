package core

import (
	"fmt"
	"io"
	"runtime"

	"securepki/internal/certlint"
	"securepki/internal/devicesim"
	"securepki/internal/extsort"
	"securepki/internal/netsim"
	"securepki/internal/obs"
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
	// snapshot writer's buffers (<= 0 means 256 MiB each). The chunk
	// store's live set counts the record of the chunk being scanned as well
	// as the finished ones: as that record grows, the oldest finished
	// chunks spill. How the writer shares its budget, and what stays
	// outside it, is documented at snapshot.StreamWriterConfig.MemBudget:
	// its shard compressors take its last eighth, at least one and at most
	// Workers (one at budgets under ~9.6 MB, which that eighth has no room
	// for), and as many shards are in flight; outside it during replay stay
	// chiefly each in-flight shard's parts and the compressed blocks it
	// fills until its payload takes them, and the certificate bytes of the
	// spilled chunk sections whose DERs the pending and in-flight
	// certificate shards reference (a section's observations are read apart
	// from them, so they are not kept). The observation columns' share
	// keeps its bound for Workers shards in flight, which still holds when
	// fewer are. The chunk store closes once replay drains it, and the
	// writer keeps an eighth of the budget (its certificate payload, which
	// lint reads back) past Finish, which drops the compressors; lint takes
	// half for the lint-column writer's sorted finding runs, and the last
	// three eighths are unused. Outside the budget during lint stay one
	// certificate shard, compressed and inflated (2048 certificates by
	// default), and its parsed certificates, the shared-key census, the
	// fingerprint and SPKI per certificate, and, while the column is
	// written, the run merges' 4 KiB read buffer per spilled run and a
	// 64 KiB output buffer.
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
// corpus or index exists at any point, yet the bytes written to snapW (the
// snapshot) and lintW (the lint sidecar column; nil skips the lint pass)
// are identical to the in-memory pipeline's at any chunk size and worker
// count — the streaming goldens pin this. v3 must be true: snapshot v3 is
// the only format, and false is an error.
//
// Its five stages (core.generate, core.scan, core.replay, core.snapshot,
// core.lint) start through the helper the resident pipeline uses, so they
// set progress.stage, journal stage.start and open a span. The cfg.Obs
// registry also receives the mem.* gauges (live chunks, the chunk store's
// live high water, spilled runs, spilled bytes, merge fan-in, lint runs,
// and a volatile heap high-water)
// on top of the stage counters the substrates already emit; each chunk
// spill gets a core.spill span and a spill journal event, and the lint
// column's write a lintcol.write event.
func StreamSnapshot(cfg Config, v3 bool, snapW, lintW io.Writer) (*StreamStats, error) {
	if !v3 {
		return nil, fmt.Errorf("core: StreamSnapshot writes snapshot v3 only")
	}
	reg := cfg.Obs
	stats := &StreamStats{}
	// An error return leaves its stage open; it must not leave the stage's
	// profiler label on the caller's goroutine.
	defer clearStageLabel()

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
	if err := camp.StreamRun(gen, cfg.Stream.ChunkSize, cfg.Workers, store); err != nil {
		return nil, fmt.Errorf("core: stream scan: %w", err)
	}
	liveGauge.Set(int64(store.LiveChunks()))
	reg.Gauge("mem.chunk_live_high_water").Set(store.LiveHighWater())
	stats.Chunks = store.NumChunks()
	reg.Counter("core.scan.scans").Add(int64(len(sched)))
	reg.Counter("core.scan.x509.sign").Add(world.Signs() - signs)
	reg.Counter("core.scan.x509.keygen").Add(world.Keygens() - keygens)
	span.End()
	readHeapHighWater(reg)

	opt := snapshot.Options{Workers: cfg.Workers, Obs: cfg.Obs, ASOf: snapshot.InternetASOf(world.Internet)}
	sw, err := snapshot.NewStreamWriter(opt, snapshot.StreamWriterConfig{
		SpillDir:  cfg.Stream.SpillDir,
		MemBudget: cfg.Stream.MemBudget,
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
			// The writer keeps each new DER until its shard lands; a
			// section's certificate slices are not reused, so it may.
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
	// Replay has drained the chunk store: its live chunks and spills go
	// before the snapshot and lint stages run.
	stats.Spills = store.Spills()
	stats.SpilledBytes = store.SpilledBytes()
	if err := store.Close(); err != nil {
		return nil, fmt.Errorf("core: stream replay: %w", err)
	}
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

// streamLint lints the certificates of the snapshot the writer just
// finished, read back from its certificate payload, and emits the sidecar
// column, byte-identical to Pipeline.Lint + WriteLintColumn: both run
// lintCorpus and one column encoder. Here the findings do not stay
// resident: each shard's findings go to a snapshot.LintColumnWriter whose
// run buffer holds half of the memory budget and spills sorted runs, which
// Finish merges by fingerprint into the column; the writer's certificate
// payload holds an eighth, and the last three eighths are unused.
func streamLint(sw *snapshot.StreamWriter, cfg Config, lintW io.Writer) error {
	budget := cfg.Stream.MemBudget
	if budget <= 0 {
		budget = extsort.DefaultMemBudget
	}
	lw, err := snapshot.NewLintColumnWriter(certlint.Default().Infos(), cfg.Stream.SpillDir, budget/2)
	if err != nil {
		return err
	}
	defer lw.Close()
	// The writer parses one certificate shard at a time; every
	// certificate it parses counts on core.lint.x509.parse.
	parsed := cfg.Obs.Counter("core.lint.x509.parse")
	err = lintCorpus(cfg, sw.NumCerts(),
		func(i int) x509lite.Fingerprint { return sw.SPKI(scanstore.CertID(i)) },
		func(lint func([]*x509lite.Certificate) error) error {
			return sw.Certs(func(certs []*x509lite.Certificate) error {
				parsed.Add(int64(len(certs)))
				return lint(certs)
			})
		},
		lw.Add)
	if err != nil {
		return err
	}
	cfg.Obs.Gauge("mem.lint_runs").Set(int64(lw.Runs()))
	readHeapHighWater(cfg.Obs)
	if err := lw.Finish(lintW); err != nil {
		return err
	}
	cfg.Journal.Emit("lintcol.write", "certs", fmt.Sprint(sw.NumCerts()))
	return nil
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
