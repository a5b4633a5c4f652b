package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// runner runs one workload's builds and query phase in a scratch directory.
type runner struct {
	o    options
	ctx  context.Context
	self string // this binary, re-executed as the build child
	work string
}

// setupProbes is how many extra children a build workload starts only to
// time set-up, so setup_s is a median of several samples.
const setupProbes = 5

func runWorkload(ctx context.Context, o options) (*result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	d := &runner{o: o, ctx: ctx, self: self, work: work}

	// Every workload starts with resident build 0, whose snapshot the query
	// phase serves and whose in-memory corpus supplies the expected answers.
	// The first build of each path in a run is a warm-up, left out of the
	// medians. Each workload also runs one build of the other path, to check
	// that the two paths write identical bytes. The workload's own builds run
	// for the measured time; the query window's length is a request count.
	measured := time.Duration(o.seconds) * time.Second
	var resident, streamed []buildResult
	timed := "resident"
	if o.workload == "build-streamed" {
		timed = "streamed"
		if resident, err = d.builds("resident", 1); err == nil {
			streamed, err = d.buildFor("streamed", measured)
		}
	} else if resident, err = d.buildFor("resident", measured); err == nil {
		streamed, err = d.builds("streamed", 1)
	}
	if err != nil {
		return nil, err
	}
	probes, err := d.probes(timed)
	if err != nil {
		return nil, err
	}
	var g gate
	g.builds(resident, streamed, o.inject == "digest")

	fx, err := readFixture(d.fixturePath(), d.stem("resident", 0)+".v3")
	if err != nil {
		return nil, err
	}
	// Write the builds' files back now, not under the query timers.
	syscall.Sync()
	sv, err := d.serve(fx, windowPerSecond*o.seconds)
	if err != nil {
		return nil, err
	}
	g.attempted += sv.attempted
	g.failed += sv.failed
	if sv.failed > 0 {
		g.problems = append(g.problems, fmt.Sprintf("%d of %d queries got a wrong answer or none", sv.failed, sv.attempted))
	}

	res := &result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metric{}}
	if o.trace {
		layerMetrics(res.Metrics, resident, streamed, sv)
	} else {
		endToEnd(res.Metrics, timedBuilds(resident), timedBuilds(streamed), timed, probes)
	}
	report(o, &g, resident, streamed, sv, res.Metrics)
	return res, nil
}

func (d *runner) stem(mode string, i int) string {
	return filepath.Join(d.work, mode+"-"+strconv.Itoa(i))
}

func (d *runner) fixturePath() string { return filepath.Join(d.work, "fixture.gob") }

// child starts one build child and reads its report. Resident build 0 also
// writes the fixture and keeps its snapshot for the query phase; every
// other build's outputs are deleted once their digests are in the report.
func (d *runner) child(mode string, i int, probe bool) (buildResult, error) {
	stem := d.stem(mode, i)
	if probe {
		stem = d.stem("probe-"+mode, i)
	}
	args := []string{"child", "-mode", mode, "-seed", strconv.FormatUint(d.o.seed, 10), "-out", stem}
	if d.o.trace {
		args = append(args, "-trace")
	}
	keep := mode == "resident" && i == 0 && !probe
	if keep {
		args = append(args, "-fixture", d.fixturePath())
	}
	if probe {
		args = append(args, "-probe")
	}
	cmd := exec.CommandContext(d.ctx, d.self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.Args = append(cmd.Args, "-t0", strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return buildResult{}, fmt.Errorf("%s build %d: %w", mode, i, err)
	}
	var r buildResult
	b, err := os.ReadFile(stem + ".json")
	if err == nil {
		err = json.Unmarshal(b, &r)
	}
	if err != nil {
		return r, fmt.Errorf("%s build %d report: %w", mode, i, err)
	}
	if !keep {
		os.Remove(stem + ".v3")
		os.Remove(stem + ".lc")
	}
	return r, nil
}

func (d *runner) builds(mode string, n int) ([]buildResult, error) {
	var out []buildResult
	for i := 0; i < n; i++ {
		r, err := d.child(mode, i, false)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// buildFor makes a warm-up build, then repeats builds until the measured
// time is spent, at least once.
func (d *runner) buildFor(mode string, measured time.Duration) ([]buildResult, error) {
	out, err := d.builds(mode, 1)
	if err != nil {
		return nil, err
	}
	for start := time.Now(); len(out) == 1 || time.Since(start) < measured; {
		r, err := d.child(mode, len(out), false)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// timedBuilds leaves out a path's warm-up build when the run made more than
// one build of that path.
func timedBuilds(rs []buildResult) []buildResult {
	if len(rs) > 1 {
		return rs[1:]
	}
	return rs
}

func (d *runner) probes(mode string) ([]float64, error) {
	var out []float64
	for i := 0; i < setupProbes; i++ {
		r, err := d.child(mode, i, true)
		if err != nil {
			return nil, err
		}
		out = append(out, r.SetupS)
	}
	return out, nil
}

// gate counts operations and records every output that differs from its
// reference.
type gate struct {
	attempted, failed int
	problems          []string
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.failed++
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// builds checks that every resident build summarises identically and that
// every build, resident or streamed, wrote the snapshot and lint-column
// bytes resident build 0 wrote. corrupt stands in a wrong reference digest.
func (g *gate) builds(resident, streamed []buildResult, corrupt bool) {
	ref := resident[0]
	if corrupt {
		ref.SnapSHA = "corrupted-" + ref.SnapSHA
	}
	for i, r := range resident {
		g.check(r.SummarySHA == ref.SummarySHA, "resident build %d: summary hash %.12s, build 0 %.12s", i, r.SummarySHA, ref.SummarySHA)
		g.check(r.SnapSHA == ref.SnapSHA && r.LintSHA == ref.LintSHA, "resident build %d: snapshot or lint column differs from the reference", i)
	}
	for i, r := range streamed {
		g.check(r.SnapSHA == ref.SnapSHA && r.LintSHA == ref.LintSHA, "streamed build %d: snapshot or lint column differs from the resident build", i)
	}
}

func pluck(rs []buildResult, f func(buildResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// endToEnd fills the metrics a user of the system sees: the timed builds of
// the workload's own path, each in its build child. The query window's
// latencies are per-layer metrics (README.md, "Steadiness").
func endToEnd(m map[string]metric, resident, streamed []buildResult, timed string, probes []float64) {
	builds := resident
	if timed == "streamed" {
		builds = streamed
	}
	setups := append(probes, pluck(builds, func(r buildResult) float64 { return r.SetupS })...)
	m["setup_s"] = metric{median(setups), "s"}
	m["build_s"] = metric{median(pluck(builds, func(r buildResult) float64 { return r.BuildS })), "s"}
	m["cpu_s"] = metric{median(pluck(builds, func(r buildResult) float64 { return r.CPUS })), "s"}
	m["peak_rss_mb"] = metric{median(pluck(builds, func(r buildResult) float64 { return r.PeakRSSMiB })), "MiB"}
}

type layerUnit struct{ name, unit string }

// residentLayers and streamedLayers are the per-layer metrics traced build
// children report, each the median over that path's timed builds in the run.
var residentLayers = []layerUnit{
	{"devicesim.generate_s", "s"}, {"scanner.scan_s", "s"}, {"truststore.validate_s", "s"},
	{"certlint.lint_s", "s"}, {"certlint.certs_per_s", "1/s"}, {"linking.link_s", "s"},
	{"tracking.track_s", "s"}, {"snapshot.write_v3_s", "s"}, {"snapshot.write_lintcol_s", "s"},
	{"truststore.chain_memo_hit_ratio", "ratio"}, {"linking.confirm_ratio", "ratio"},
	{"trace.resident_stage_sum_s", "s"},
}

var streamedLayers = []layerUnit{
	{"devicesim.stream_generate_s", "s"}, {"scanner.stream_scan_s", "s"}, {"snapshot.stream_replay_s", "s"},
	{"snapshot.stream_finish_s", "s"}, {"certlint.stream_lint_s", "s"},
	{"mem.spilled_runs", "count"}, {"mem.spilled_bytes", "bytes"}, {"mem.merge_fanin", "count"},
	{"mem.heap_high_water_mb", "MiB"},
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(m map[string]metric, resident, streamed []buildResult, sv *serveResult) {
	resident, streamed = timedBuilds(resident), timedBuilds(streamed)
	for _, l := range residentLayers {
		m[l.name] = metric{median(pluck(resident, func(r buildResult) float64 { return r.Layers[l.name] })), l.unit}
	}
	for _, l := range streamedLayers {
		m[l.name] = metric{median(pluck(streamed, func(r buildResult) float64 { return r.Layers[l.name] })), l.unit}
	}
	m["trace.resident_build_s"] = metric{median(pluck(resident, func(r buildResult) float64 { return r.BuildS })), "s"}
	m["trace.streamed_build_s"] = metric{median(pluck(streamed, func(r buildResult) float64 { return r.BuildS })), "s"}

	snap := sv.ladderServer
	hits, misses := counterValue(snap, "query.cache.hit"), counterValue(snap, "query.cache.miss")
	m["querystore.cache_hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	m["querystore.inflate_mb"] = metric{counterValue(snap, "query.cache.inflate_raw_bytes") / (1 << 20), "MiB"}
	m["querystore.evictions"] = metric{counterValue(snap, "query.cache.evict"), "count"}
	lat := findMetric(sv.server, "query.http.latency_us")
	p50, _ := lat.Quantile(0.5)
	p99, _ := lat.Quantile(0.99)
	m["certquery.server_p50_us"] = metric{p50, "us"}
	m["certquery.server_p99_us"] = metric{p99, "us"}
	m["certquery.max_rps"] = metric{sv.maxRPS, "1/s"}

	all := latenciesMS(sv.window)
	m["certquery.p50_ms"] = metric{quantile(all, 0.5), "ms"}
	m["certquery.p99_ms"] = metric{quantile(all, 0.99), "ms"}
	cert := latenciesMS(sv.window, routeCert)
	m["certquery.cert_p50_ms"] = metric{quantile(cert, 0.5), "ms"}
	m["certquery.cert_p99_ms"] = metric{quantile(cert, 0.99), "ms"}
	m["certquery.index_p50_ms"] = metric{quantile(latenciesMS(sv.window, routeSPKI, routeIP, routeAS, routeLint), 0.5), "ms"}
	m["certquery.miss_p50_ms"] = metric{quantile(latenciesMS(sv.window, routeMiss), 0.5), "ms"}
	m["loadgen.late_p99_ms"] = metric{quantile(lateMS(sv.ladder), 0.99), "ms"}

	m["querystore.open_ms"] = metric{sv.store.openMS, "ms"}
	m["querystore.by_fp_us"] = metric{sv.store.byFPus, "us"}
	m["x509lite.self_signed_us"] = metric{sv.store.selfSignedUS, "us"}
}

// report prints the run for a reader on stderr: each build, the query
// window's sample count, the ladder, the failure fraction and every metric
// with its unit.
func report(o options, g *gate, resident, streamed []buildResult, sv *serveResult, m map[string]metric) {
	w := os.Stderr
	fmt.Fprintf(w, "perfbench %s seed %d trace %v\n", o.workload, o.seed, o.trace)
	for _, set := range []struct {
		mode string
		rs   []buildResult
	}{{"resident", resident}, {"streamed", streamed}} {
		for i, r := range set.rs {
			fmt.Fprintf(w, "  %s build %d: setup %.4fs build %.3fs cpu %.3fs peak rss %.1f MiB\n", set.mode, i, r.SetupS, r.BuildS, r.CPUS, r.PeakRSSMiB)
			if sum, ok := r.Layers["trace.resident_stage_sum_s"]; ok {
				fmt.Fprintf(w, "    traced stage times sum to %.3fs of %.3fs (%.3fs outside the timed calls)\n", sum, r.BuildS, r.BuildS-sum)
			}
		}
	}
	fmt.Fprintf(w, "  served snapshot: %d certificate shards; the window's certquery caches all of them, the ladder's %d\n", sv.shards, sv.ladderCache)
	n := len(sv.window)
	fmt.Fprintf(w, "  query window: %d requests, closed loop on one connection; p%g is the highest quantile with ten samples beyond it\n",
		n, 100*tailQuantile(n))
	lat := latenciesMS(sv.window)
	fmt.Fprintf(w, "    latency ms: p50 %.3f, p90 %.3f, p98 %.3f, p99 %.3f, p99.9 %.3f\n",
		quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.98), quantile(lat, 0.99), quantile(lat, 0.999))
	if len(sv.rungs) > 0 {
		fmt.Fprintf(w, "  certquery.max_rps: highest rate found with p99 within %v\n", latencyLimit)
		for _, r := range sv.rungs {
			fmt.Fprintf(w, "    rung %6.0f/s: p99 %8.3f ms, passed %v\n", r.rate, r.p99ms, r.passed)
		}
	}
	fmt.Fprintf(w, "  fail_frac %g (%d of %d operations failed)\n", float64(g.failed)/float64(max(g.attempted, 1)), g.failed, g.attempted)
	for _, p := range g.problems {
		fmt.Fprintln(w, "  FAIL:", p)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}
