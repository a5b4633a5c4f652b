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
// the findings loaded from such a column, so nothing is re-linted, and
// refuses a column written for another corpus;
// -lint-config scopes or suppresses linters with certlint.json semantics,
// and does not apply to findings -lint-in loads. Both lint experiments read
// the findings the run ends with: lint surveys them by validity and
// lintcuts cuts them by device class, issuer and AS.
//
// The §6 linking study is -exp table5,table6,fig10,s644,truth and the §7
// tracking study -exp s72,fig11,s73.
//
// With -corpus the scan stage is replaced by loading a snapshot written by
// scangen, certscan or analyze -save-corpus, decoded across -workers. The
// world is still regenerated from -seed/-small so validation runs against
// the same root store that issued the corpus — use the same sizing flags as
// the run that wrote it. Ground truth is not persisted, so the truth-based
// precision evaluation reports zeros on this path. -save-corpus writes the
// corpus as a snapshot whose AS index comes from the world's simulated
// routing table.
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
		workers    = flag.Int("workers", 0, "worker pool size for every stage (0 = GOMAXPROCS); output is identical at any setting")
		exp        = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		plotDir    = flag.String("plotdir", "", "also write gnuplot-ready .dat files and plots.gp to this directory")
		asJSON     = flag.Bool("json", false, "print a machine-readable summary instead of experiment text")
		corpus     = flag.String("corpus", "", "load the corpus from this snapshot instead of scanning")
		saveTo     = flag.String("save-corpus", "", "after the run, write the corpus as a snapshot to this file")
		lintOut    = flag.String("lint-out", "", "write the lint stage's findings as a sidecar column to this file")
		lintIn     = flag.String("lint-in", "", "load findings from a persisted column instead of re-linting")
		lintConf   = flag.String("lint-config", "", "certlint.json suppression/scoping config for the lint stage; it does not apply to findings -lint-in loads")
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
	p := &core.Pipeline{Config: cfg}
	scan, lint := p.Scan, func() error { p.Lint(); return nil }
	if *corpus != "" {
		scan = func() error { return loadSnapshot(p, *corpus) }
	}
	if *lintIn != "" {
		lint = func() error {
			lc, err := snapshot.ReadLintColumnFile(*lintIn)
			if err != nil {
				return err
			}
			if err := p.LoadLintColumn(lc); err != nil {
				return fmt.Errorf("%s: %w", *lintIn, err)
			}
			fmt.Fprintf(os.Stderr, "lint findings loaded from %s (%d certs, %d findings)\n\n",
				*lintIn, lc.CertCount(), lc.FindingCount())
			return nil
		}
	}
	stages := []func() error{p.Generate, scan, p.Validate, lint,
		func() error { p.Link(); return nil },
		func() error { p.Track(); return nil }}
	for _, stage := range stages {
		if err := stage(); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
	}
	span.SetAttrInt("certs", int64(p.Corpus.NumCerts()))
	span.SetAttrInt("scans", int64(p.Corpus.NumScans()))
	span.End()
	fmt.Fprintf(os.Stderr, "pipeline complete in %v (%d certs, %d scans)\n\n",
		span.Timer, p.Corpus.NumCerts(), p.Corpus.NumScans())

	if *lintOut != "" {
		if err := obs.WriteFileAtomic(*lintOut, p.WriteLintColumn); err != nil {
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
		if err := obs.WriteFileAtomic(*saveTo, p.WriteSnapshotV3); err != nil {
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

// loadSnapshot replaces the scan stage with a snapshot load: the corpus
// comes from disk, decoded across the pipeline's workers, and Truth stays
// nil.
func loadSnapshot(p *core.Pipeline, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	return p.LoadSnapshot(f, fi.Size())
}
