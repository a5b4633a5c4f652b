// Command analyze regenerates the paper's tables and figures: it runs the
// full pipeline (generate → scan → validate → link → track) deterministically
// from a seed and prints the requested experiments.
//
// Usage:
//
//	analyze [-small] [-seed 1] [-workers 0] [-exp all|fig3,table6,...] [-list]
//	        [-corpus corpus.spki] [-save-corpus corpus.spki]
//	        [-lint-out findings.lc] [-lint-in findings.lc] [-lint-config certlint.json]
//	        [-metrics-out metrics.json] [-trace-out trace.jsonl]
//
// -metrics-out writes the pipeline's metric registry (core.*, linking.*,
// lint.*, snapshot.* and parallel.*) as a versioned JSON document; -trace-out
// appends one JSON line per pipeline-stage span.
//
// -lint-out persists the lint stage's findings as the checksummed sidecar
// column certquery serves on /v1/lint; -lint-in replaces the lint stage with
// findings loaded from such a column (the lint/lintcuts experiments then cut
// the persisted findings); -lint-config scopes or suppresses linters with
// certlint.json semantics.
//
// With -corpus the scan stage is replaced by loading a snapshot written by
// scangen or analyze -save-corpus (any format; v2/v3 decode across
// -workers). The world is still regenerated from -seed/-small so validation
// runs against the same root store that issued the corpus — use the same
// sizing flags as the run that wrote it. Ground truth is not persisted, so
// the truth-based precision evaluation reports zeros on this path.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"securepki/internal/certlint"
	"securepki/internal/core"
	"securepki/internal/obs"
	"securepki/internal/parallel"
	"securepki/internal/snapshot"
)

func main() {
	var (
		small      = flag.Bool("small", false, "use the reduced sizing (seconds instead of tens of seconds)")
		seed       = flag.Uint64("seed", 0, "world seed (0 = default)")
		workers    = flag.Int("workers", 0, "worker pool size for validation/indexing/linking (0 = GOMAXPROCS); output is identical at any setting")
		exp        = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		plotDir    = flag.String("plotdir", "", "also write gnuplot-ready .dat files and plots.gp to this directory")
		asJSON     = flag.Bool("json", false, "print a machine-readable summary instead of experiment text")
		corpus     = flag.String("corpus", "", "load the corpus from this snapshot instead of scanning (v1, v2 or v3)")
		saveTo     = flag.String("save-corpus", "", "after the run, write the corpus as a v2 snapshot to this file")
		lintOut    = flag.String("lint-out", "", "write the lint stage's findings as a sidecar column to this file")
		lintIn     = flag.String("lint-in", "", "load findings from a persisted column instead of re-linting")
		lintConf   = flag.String("lint-config", "", "certlint.json suppression/scoping config for the lint stage")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics as a versioned JSON document")
		traceOut   = flag.String("trace-out", "", "append pipeline-stage span events as JSON lines")
	)
	flag.Parse()

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-8s %s\n         paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	cfg := core.DefaultConfig()
	if *small {
		cfg = core.SmallConfig()
	}
	if *seed != 0 {
		cfg.World.Seed = *seed
	}
	cfg.Workers = *workers
	if *lintConf != "" {
		lintCfg, err := certlint.LoadConfig(*lintConf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		cfg.LintConfig = lintCfg
	}

	var selected []core.Experiment
	if *exp == "all" {
		selected = core.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := core.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "analyze: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	reg := obs.NewRegistry()
	parallel.SetObserver(obs.NewParallelCollector(reg))
	defer parallel.SetObserver(nil)
	cfg.Obs = reg
	traceW := io.Discard
	if *traceOut != "" {
		tf, err := obs.WriteTraceFile(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		defer tf.Close()
		traceW = tf
	}
	tracer := obs.NewWallClockTracer(traceW)
	cfg.Tracer = tracer

	// The pipeline span wraps the stage spans core.Pipeline emits; its Timer
	// replaces the old free-standing stats.Timer in the progress line.
	span := tracer.Start("analyze.pipeline")
	var p *core.Pipeline
	var err error
	if *corpus != "" {
		p, err = runFromSnapshot(cfg, *corpus)
	} else {
		p, err = core.Run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
	span.SetAttrInt("certs", int64(p.Corpus.NumCerts()))
	span.SetAttrInt("scans", int64(p.Corpus.NumScans()))
	span.End()
	fmt.Fprintf(os.Stderr, "pipeline complete in %v (%d certs, %d scans)\n\n",
		span.Timer, p.Corpus.NumCerts(), p.Corpus.NumScans())

	if *lintIn != "" {
		lc, err := snapshot.ReadLintColumnFile(*lintIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		results := make([]certlint.CertFindings, lc.CertCount())
		for k := range results {
			results[k] = certlint.CertFindings{Fingerprint: lc.Fingerprint(k), Findings: lc.FindingsAt(k)}
		}
		p.LintResults = results
		fmt.Fprintf(os.Stderr, "lint findings loaded from %s (%d certs, %d findings)\n\n",
			*lintIn, lc.CertCount(), lc.FindingCount())
	}
	if *lintOut != "" {
		f, err := os.Create(*lintOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		if err := p.WriteLintColumn(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "lint findings written to %s\n\n", *lintOut)
	}

	if *metricsOut != "" {
		if err := obs.WriteMetricsFile(*metricsOut, reg); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
	}

	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		if err := p.WriteSnapshot(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "corpus saved to %s\n\n", *saveTo)
	}

	if *asJSON {
		if err := core.Summarize(p).WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		return
	}

	if *plotDir != "" {
		if err := core.WritePlotData(p, *plotDir); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "plot data written to %s (render with: gnuplot plots.gp)\n\n", *plotDir)
	}

	for _, e := range selected {
		fmt.Printf("== %s — %s\n", e.ID, e.Title)
		fmt.Printf("   paper: %s\n", e.Paper)
		out := e.Run(p)
		for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
			fmt.Printf("   %s\n", line)
		}
		fmt.Println()
	}
}

// runFromSnapshot replaces the scan stage with a snapshot load: the world is
// regenerated from the config (roots and topology), the corpus comes from
// disk, and validation/linking/tracking run as usual. Truth stays nil.
func runFromSnapshot(cfg core.Config, path string) (*core.Pipeline, error) {
	p := &core.Pipeline{Config: cfg}
	if err := p.Generate(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := p.LoadSnapshot(f); err != nil {
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
