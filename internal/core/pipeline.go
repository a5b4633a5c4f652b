// Package core wires the substrates into the paper's end-to-end pipeline —
// generate population → run scan campaigns → validate certificates → analyse
// (§4–§5) → link (§6) → track (§7) — and exposes a registry of experiments
// that regenerates every table and figure in the evaluation.
package core

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"time"

	"securepki/internal/analysis"
	"securepki/internal/certlint"
	"securepki/internal/devicesim"
	"securepki/internal/linking"
	"securepki/internal/obs"
	"securepki/internal/scanner"
	"securepki/internal/scanstore"
	"securepki/internal/snapshot"
	"securepki/internal/tracking"
	"securepki/internal/truststore"
	"securepki/internal/x509lite"
)

// Config assembles the stage configurations. DefaultConfig reproduces the
// paper's setup at laptop scale.
type Config struct {
	World   devicesim.Config
	Scan    scanner.Config
	Linking linking.Config
	// Workers bounds every parallel stage of both build paths — scan,
	// validation, index building, lint, linking and the snapshot codec;
	// <= 0 means GOMAXPROCS. Results are byte-identical at any worker count;
	// see DESIGN.md "Concurrency model & determinism".
	Workers int
	// Obs receives the core.* stage counters (certs validated per status,
	// sightings indexed, link coverage, chain-memo hits/misses) and is
	// threaded into the snapshot codec and the linker. nil disables
	// instrumentation; see DESIGN.md "Observability contract".
	Obs *obs.Registry
	// Tracer emits one span per pipeline stage. nil disables tracing.
	Tracer *obs.Tracer
	// Journal receives structured events at serial program points — stage
	// starts, spill runs, lint-column writes — so the event stream is
	// worker-count-independent like the metrics. nil disables journaling.
	Journal *obs.Journal
	// LintConfig scopes or suppresses registry linters in the lint stage
	// (certlint.json semantics); nil runs every registered linter everywhere.
	LintConfig *certlint.Config
	// Stream sizes the streaming build path (StreamSnapshot); the in-memory
	// pipeline ignores it.
	Stream StreamConfig
}

// DefaultConfig returns the standard experiment sizing.
func DefaultConfig() Config {
	return Config{
		World:   devicesim.DefaultConfig(),
		Scan:    scanner.DefaultConfig(),
		Linking: linking.DefaultConfig(),
	}
}

// SmallConfig returns a reduced sizing for quick runs (examples, smoke
// tests); distributions remain measurable but noisier.
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.World.NumDevices = 1500
	cfg.World.NumSites = 650
	cfg.Scan.UMichScans = 16
	cfg.Scan.Rapid7Scans = 8
	return cfg
}

// Pipeline carries every artefact of one full run.
type Pipeline struct {
	Config Config

	World  *devicesim.World
	Corpus *scanstore.Corpus
	Truth  *scanner.Truth
	// ValidationCounts is the §4.2 outcome per status.
	ValidationCounts map[truststore.Status]int

	Dataset    *analysis.Dataset
	Linker     *linking.Linker
	LinkResult linking.Result
	Tracker    *tracking.Tracker

	// LintResults holds the lint stage's output in corpus order:
	// LintResults[i] is certificate i's findings, sorted by (LintID,
	// Severity).
	LintResults []certlint.CertFindings
}

// Stage ordinals for the progress.stage gauge — what /statusz renders while
// a build is running. The streamed build runs generate, scan, replay,
// snapshot and lint.
const (
	stageGenerate = 1 + iota
	stageScan
	stageValidate
	stageLint
	stageLink
	stageTrack
	stageReplay
	stageSnapshot
)

// stage marks a stage boundary on either build path: progress gauge, journal
// event, tracer span, and the runtime/pprof label stage=<name> on the
// calling goroutine. Stages begin at serial program points, so the journal
// line sequence is the same at any worker count. The goroutines a stage fans
// out to inherit its label, so a CPU profile of a build (a
// /debug/pprof/profile capture, or go tool pprof -tags) splits by stage.
func (c *Config) stage(name string, ordinal int64) stageSpan {
	c.Obs.Gauge("progress.stage").Set(ordinal)
	c.Journal.Emit("stage.start", "stage", name)
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("stage", name)))
	return stageSpan{c.Tracer.Start(name)}
}

// stageSpan is a running stage's tracer span.
type stageSpan struct{ span *obs.Span }

// End ends the span and restores the labels the goroutine had before the
// stage: none, since stages run one after another, never nested, on a
// goroutine the build does not otherwise label.
func (s stageSpan) End() {
	s.span.End()
	clearStageLabel()
}

// clearStageLabel removes a stage's profiler label from the calling
// goroutine.
func clearStageLabel() { pprof.SetGoroutineLabels(context.Background()) }

// Run executes the full pipeline.
func Run(cfg Config) (*Pipeline, error) {
	p := &Pipeline{Config: cfg}
	if err := p.Generate(); err != nil {
		return nil, err
	}
	if err := p.Scan(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Lint()
	p.Link()
	p.Track()
	return p, nil
}

// Generate builds the world (stage 1).
func (p *Pipeline) Generate() error {
	defer p.Config.stage("core.generate", stageGenerate).End()
	w, err := devicesim.BuildWorld(p.Config.World)
	if err != nil {
		return fmt.Errorf("core: generate: %w", err)
	}
	p.World = w
	reg := p.Config.Obs
	reg.Counter("core.world.devices").Add(int64(len(w.Devices)))
	reg.Counter("core.world.sites").Add(int64(len(w.Sites)))
	// Host certificates are signed when a scan first returns them, so this
	// stage signs only the trust hierarchy and the vendor CAs.
	reg.Counter("core.generate.x509.sign").Add(w.Signs())
	reg.Counter("core.generate.x509.keygen").Add(w.Keygens())
	reg.Gauge("progress.hosts_done").Set(int64(len(w.Devices)))
	return nil
}

// Scan runs both operators' campaigns (stage 2). Generate must have run.
func (p *Pipeline) Scan() error {
	if p.World == nil {
		return fmt.Errorf("core: Scan before Generate")
	}
	camp, err := scanner.New(p.World, p.Config.Scan)
	if err != nil {
		return fmt.Errorf("core: scan: %w", err)
	}
	defer p.Config.stage("core.scan", stageScan).End()
	signs, keygens := p.World.Signs(), p.World.Keygens()
	corpus, truth, err := camp.Run(p.Config.Workers)
	if err != nil {
		return fmt.Errorf("core: scan: %w", err)
	}
	p.Corpus, p.Truth = corpus, truth
	reg := p.Config.Obs
	reg.Counter("core.scan.x509.sign").Add(p.World.Signs() - signs)
	reg.Counter("core.scan.x509.keygen").Add(p.World.Keygens() - keygens)
	reg.Counter("core.scan.scans").Add(int64(corpus.NumScans()))
	reg.Counter("core.scan.observations").Add(int64(corpus.NumObservations()))
	reg.Counter("core.corpus.certs").Add(int64(corpus.NumCerts()))
	return nil
}

// WriteSnapshotV3 serialises the corpus as a snapshot (internal/snapshot):
// the sharded columnar payloads plus the point-lookup index sections that
// cmd/certquery and internal/querystore serve from, encoding shards across
// Config.Workers. Output bytes do not depend on the worker count. When the
// pipeline has a generated world, its simulated Internet provides the AS
// index; without one there is no network view, and the AS section is
// written empty.
func (p *Pipeline) WriteSnapshotV3(w io.Writer) error {
	if p.Corpus == nil {
		return fmt.Errorf("core: WriteSnapshotV3 before Scan or LoadSnapshot")
	}
	opt := snapshot.Options{Workers: p.Config.Workers, Obs: p.Config.Obs}
	if p.World != nil && p.World.Internet != nil {
		opt.ASOf = snapshot.InternetASOf(p.World.Internet)
	}
	if err := snapshot.WriteV3(w, p.Corpus, opt); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// LoadSnapshot replaces the pipeline's scan stage with a corpus read from a
// snapshot of size bytes, decoding across Config.Workers. Ground truth is
// not persisted, so p.Truth stays nil and truth-based evaluations degrade
// to zeros; everything downstream of the corpus (Validate, Link, Track)
// runs as usual.
func (p *Pipeline) LoadSnapshot(ra io.ReaderAt, size int64) error {
	c, err := snapshot.Read(ra, size, snapshot.Options{Workers: p.Config.Workers, Obs: p.Config.Obs})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	p.Corpus, p.Truth = c, nil
	return nil
}

// Validate classifies every certificate against the world's root store
// (stage 3) and builds the analysis dataset. Both fan out across
// Config.Workers.
func (p *Pipeline) Validate() error {
	defer p.Config.stage("core.validate", stageValidate).End()
	store := truststore.NewStore()
	for _, r := range p.World.Roots() {
		store.AddRoot(r)
	}
	p.ValidationCounts = p.Corpus.ValidateWorkers(store, p.Config.Workers)
	p.Dataset = analysis.NewDatasetWorkers(p.Corpus, p.World.Internet, p.Config.Workers)
	if reg := p.Config.Obs; reg != nil {
		reg.Counter("core.validate.certs").Add(int64(p.Corpus.NumCerts()))
		statuses := make([]truststore.Status, 0, len(p.ValidationCounts))
		for st := range p.ValidationCounts {
			statuses = append(statuses, st)
		}
		sort.Slice(statuses, func(i, j int) bool { return statuses[i] < statuses[j] })
		for _, st := range statuses {
			reg.Counter("core.validate.status." + st.String()).Add(int64(p.ValidationCounts[st]))
		}
		// The memo counts are deterministic: misses happen exactly once per
		// distinct issuer fingerprint (the fill holds the lock), so even
		// these are worker-independent.
		hits, misses := store.ChainCacheStats()
		reg.Counter("core.validate.chain_memo.hits").Add(int64(hits))
		reg.Counter("core.validate.chain_memo.misses").Add(int64(misses))
		reg.Counter("core.validate.x509.verify").Add(store.Verifies())
		reg.Counter("core.index.sightings").Add(int64(p.Corpus.NumObservations()))
	}
	return nil
}

// Lint runs the default registry over every corpus certificate (stage 3b),
// with the corpus-wide key-sharing census as lint context. The results are
// in CertID order and byte-identical at any worker count. Validation stored
// a self-signature verdict on every certificate it self-checked, so only the
// others pay a verify here.
func (p *Pipeline) Lint() {
	defer p.Config.stage("core.lint", stageLint).End()
	certs := make([]*x509lite.Certificate, p.Corpus.NumCerts())
	for i, rec := range p.Corpus.Certs() {
		certs[i] = rec.Cert
	}
	// The resident corpus is one batch, which RunCorpus returns in input
	// order; feeding and keeping it cannot fail. An empty corpus has been
	// linted too, so its results are empty, not nil.
	p.LintResults = []certlint.CertFindings{}
	lintCorpus(p.Config, len(certs),
		func(i int) x509lite.Fingerprint { return certs[i].PublicKeyFingerprint() },
		func(lint func([]*x509lite.Certificate) error) error { return lint(certs) },
		func(results []certlint.CertFindings) error {
			if len(results) > 0 {
				p.LintResults = results
			}
			return nil
		})
}

// lintCorpus is the lint stage of both build paths. It takes the key-sharing
// census over all n certificates first (spki(i) is certificate i's public-key
// fingerprint; certlint.SharedKeys keeps only the shared keys), then lints
// every batch feed hands to its callback through
// certlint.Registry.RunCorpus, handing each batch's findings to sink in the
// batch's order. The registry emits the lint.* metrics per batch, whose
// counters add up across batches; the core.lint.* counters follow the last.
func lintCorpus(cfg Config, n int, spki func(i int) x509lite.Fingerprint,
	feed func(lint func([]*x509lite.Certificate) error) error, sink func([]certlint.CertFindings) error) error {
	ctx := &certlint.Context{KeyCount: certlint.SharedKeys(n, spki)}
	regy := certlint.Default()
	opts := certlint.Options{Workers: cfg.Workers, Config: cfg.LintConfig, Obs: cfg.Obs}
	flagged := 0
	err := feed(func(certs []*x509lite.Certificate) error {
		results := regy.RunCorpus(certs, ctx, opts)
		for _, cf := range results {
			if len(cf.Findings) > 0 {
				flagged++
			}
		}
		return sink(results)
	})
	if err != nil {
		return err
	}
	cfg.Obs.Counter("core.lint.flagged_certs").Add(int64(flagged))
	cfg.Obs.Counter("core.lint.x509.verify").Add(ctx.Verifies())
	return nil
}

// WriteLintColumn persists the lint stage's findings as the checksummed
// sidecar column (internal/snapshot format SPKILC01) that cmd/analyze reads
// back and cmd/certquery serves point lookups from.
func (p *Pipeline) WriteLintColumn(w io.Writer) error {
	if p.LintResults == nil {
		return fmt.Errorf("core: WriteLintColumn before Lint")
	}
	if err := snapshot.WriteLintColumn(w, p.LintResults, certlint.Default().Infos()); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	p.Config.Journal.Emit("lintcol.write", "certs", fmt.Sprint(len(p.LintResults)))
	return nil
}

// LoadLintColumn replaces the lint stage with the findings of a persisted
// column, placing each entry at its certificate's CertID. The column must be
// the corpus's own: it fails, leaving LintResults as they were, when its
// certificate count differs from the corpus's or one of its fingerprints is
// not in the corpus. Scan or LoadSnapshot must have run.
func (p *Pipeline) LoadLintColumn(lc *snapshot.LintColumn) error {
	if p.Corpus == nil {
		return fmt.Errorf("core: LoadLintColumn before Scan or LoadSnapshot")
	}
	if n := p.Corpus.NumCerts(); lc.CertCount() != n {
		return fmt.Errorf("core: lint column covers %d certs, the corpus holds %d", lc.CertCount(), n)
	}
	results := make([]certlint.CertFindings, lc.CertCount())
	for k := range results {
		fp := lc.Fingerprint(k)
		id, ok := p.Corpus.Lookup(fp)
		if !ok {
			return fmt.Errorf("core: lint column entry %d (%s) is not in the corpus", k, fp)
		}
		results[id] = certlint.CertFindings{Fingerprint: fp, Findings: lc.FindingsAt(k)}
	}
	p.LintResults = results
	return nil
}

// Link runs the §6 pipeline (stage 4) across Config.Workers.
func (p *Pipeline) Link() {
	defer p.Config.stage("core.link", stageLink).End()
	p.Linker = linking.NewLinker(p.Dataset, p.Config.Linking, p.Config.Workers, p.Config.Obs)
	p.LinkResult = p.Linker.Link()
	reg := p.Config.Obs
	reg.Counter("core.link.invalid_total").Add(int64(p.Linker.InvalidTotal()))
	reg.Counter("core.link.eligible").Add(int64(p.LinkResult.EligibleCerts))
	reg.Counter("core.link.excluded_shared").Add(int64(p.Linker.ExcludedShared()))
	reg.Counter("core.link.groups").Add(int64(len(p.LinkResult.Groups)))
	reg.Counter("core.link.linked_certs").Add(int64(p.LinkResult.LinkedCerts))
}

// Track derives device entities (stage 5).
func (p *Pipeline) Track() {
	defer p.Config.stage("core.track", stageTrack).End()
	p.Tracker = tracking.NewTracker(p.Dataset, p.LinkResult, p.Linker)
	p.Config.Obs.Counter("core.track.entities").Add(int64(len(p.Tracker.Entities())))
}

// Year is the §7 trackability threshold.
const Year = 365 * 24 * time.Hour
