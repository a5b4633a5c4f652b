package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// minRuns is how many runs of each benchmark -compare needs: the median of
// fewer moves with one noisy run. threshold is the largest rise in a median
// B/op or allocs/op that passes, as a fraction of the baseline: allocation
// counts repeat run to run, so a rise past it is the code's, not noise's.
const (
	minRuns   = 5
	threshold = 0.05
)

// compareUnits are the metrics -compare sets against the baseline. A rise
// in any but ns/op fails it; ns/op is only printed.
var compareUnits = []string{"B/op", "allocs/op", "ns/op"}

// delta is one benchmark metric of a fresh run set against its baseline.
type delta struct {
	Name, Unit  string
	Base, Fresh float64 // the baseline value, the fresh runs' median
	Gated       bool
}

// regressed reports whether a gated metric rose by more than threshold.
func (d delta) regressed() bool {
	return d.Gated && d.Fresh > d.Base*(1+threshold)
}

// compareFile reads the baseline report at path, compares fresh with it and
// prints one row per metric to w; it reports whether any gated metric rose
// beyond threshold.
func compareFile(w io.Writer, path string, fresh Report) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	ds, err := compare(base, fresh)
	if err != nil {
		return false, err
	}
	return printDeltas(w, ds)
}

// compare takes the median of each fresh benchmark's runs and sets it
// against the baseline benchmark of the same name. A benchmark the baseline
// lacks, or a metric either side did not report, is skipped; one with
// fewer than minRuns runs is an error.
func compare(base, fresh Report) ([]delta, error) {
	baseByName := map[string]map[string]float64{}
	for _, b := range base.Benchmarks {
		baseByName[b.Name] = b.Metrics
	}
	var names []string
	runs := map[string][]map[string]float64{}
	for _, b := range fresh.Benchmarks {
		if _, seen := runs[b.Name]; !seen {
			names = append(names, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b.Metrics)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no benchmark results to compare")
	}
	var ds []delta
	for _, name := range names {
		if n := len(runs[name]); n < minRuns {
			return nil, fmt.Errorf("%s ran %d times; -compare needs at least %d (go test -count=%d)", name, n, minRuns, minRuns)
		}
		baseMetrics, ok := baseByName[name]
		if !ok {
			continue
		}
		for _, unit := range compareUnits {
			baseVal, ok := baseMetrics[unit]
			if !ok {
				continue
			}
			var vals []float64
			for _, m := range runs[name] {
				if v, ok := m[unit]; ok {
					vals = append(vals, v)
				}
			}
			if len(vals) < minRuns {
				continue
			}
			ds = append(ds, delta{Name: name, Unit: unit, Base: baseVal, Fresh: median(vals), Gated: unit != "ns/op"})
		}
	}
	return ds, nil
}

// median returns the middle value of vals, or the mean of the two middle
// values when their count is even. It sorts vals.
func median(vals []float64) float64 {
	slices.Sort(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// printDeltas writes one row per delta and reports whether any gated metric
// rose beyond threshold.
func printDeltas(w io.Writer, ds []delta) (bool, error) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmetric\tbaseline\tmedian\tdelta\tverdict")
	regressed := false
	for _, d := range ds {
		change := "n/a"
		if d.Base != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(d.Fresh-d.Base)/d.Base)
		}
		verdict := "ok"
		switch {
		case !d.Gated:
			verdict = "info"
		case d.regressed():
			verdict = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.0f\t%s\t%s\n", d.Name, d.Unit, d.Base, d.Fresh, change, verdict)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if regressed {
		fmt.Fprintf(w, "a median B/op or allocs/op rose more than %.1f%% above the baseline\n", 100*threshold)
	}
	return regressed, nil
}
