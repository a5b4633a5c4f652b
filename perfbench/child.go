package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"securepki/internal/core"
	"securepki/internal/obs"
)

// streamBudget and streamChunk size build-streamed: the budget is small
// enough, and the population cut into enough chunks, that the chunk store
// spills and the snapshot writer's sorters merge more than one run, so the
// workload exercises the external-memory path.
const (
	streamBudget = 2 << 20
	streamChunk  = 1024 // hosts
)

// buildResult is what one build child reports to the runner.
type buildResult struct {
	SetupS     float64            `json:"setup_s"`
	BuildS     float64            `json:"build_s"`
	CPUS       float64            `json:"cpu_s"`
	PeakRSSMiB float64            `json:"peak_rss_mib"`
	SnapSHA    string             `json:"snap_sha256"`
	LintSHA    string             `json:"lint_sha256"`
	SummarySHA string             `json:"summary_sha256,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// worldDivisor shrinks DefaultConfig's device and site populations (the scan
// schedule stays) so one build takes about two seconds: a run then holds
// several builds, and its medians stay steady on a noisy 2-CPU machine. At
// this size every scan seed tried yields 4.5 to 4.9 shards' worth of
// certificates, so the snapshot always has 5 certificate shards and the
// query mix meets the same cache on every seed; at a quarter the count
// straddles 6 shards, and the cache hit ratio moved by 0.13 between seeds.
const worldDivisor = 5

// benchConfig is DefaultConfig with the population divided by worldDivisor
// and the scan seed drawn from the benchmark seed. The world seed stays
// DefaultConfig's: at this scale a new world moves the certificate count,
// and with it every build's cost, by ±8% between seeds, more than the
// bounds allow; new scans of one world change which certificates and
// sightings the corpus holds while keeping its size.
func benchConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.World.NumDevices /= worldDivisor
	cfg.World.NumSites /= worldDivisor
	cfg.Scan.Seed = splitmix(seed ^ 0x7363616e) // "scan"
	return cfg
}

// splitmix is the SplitMix64 finalizer, kept non-zero so it is always a
// usable generator seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// childMain runs one build and writes its report to <out>.json. Set-up runs
// from the runner's start of this process to the first stage call; build_s
// from there until both output files are closed. CPU and peak RSS are read
// at that point, before the digests, summary and fixture are computed.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	var (
		mode    = fs.String("mode", "resident", "build path: resident or streamed")
		seed    = fs.Uint64("seed", 1, "benchmark seed")
		stem    = fs.String("out", "", "output stem: writes <stem>.v3, <stem>.lc and <stem>.json")
		trace   = fs.Bool("trace", false, "attach the metric registry and tracer, and time every stage")
		fixture = fs.String("fixture", "", "resident only: also write the query fixture to this file")
		t0      = fs.Int64("t0", 0, "runner wall clock, in Unix ns, just before it started this process")
		probe   = fs.Bool("probe", false, "stop at the first stage call, measuring set-up only")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mode != "resident" && *mode != "streamed" {
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	cfg := benchConfig(*seed)
	var reg *obs.Registry
	if *trace {
		reg = obs.NewRegistry()
		cfg.Obs = reg
		cfg.Tracer = obs.NewTracer(nil, time.Now)
		cfg.Tracer.KeepTail(1 << 12)
	}
	if *mode == "streamed" {
		cfg.Stream = core.StreamConfig{ChunkSize: streamChunk, MemBudget: streamBudget, SpillDir: filepath.Dir(*stem)}
	}
	snapF, err := os.Create(*stem + ".v3")
	if err != nil {
		return err
	}
	defer snapF.Close()
	lintF, err := os.Create(*stem + ".lc")
	if err != nil {
		return err
	}
	defer lintF.Close()
	snapW, lintW := bufio.NewWriterSize(snapF, 1<<20), bufio.NewWriterSize(lintF, 1<<20)

	start := time.Now()
	res := buildResult{SetupS: start.Sub(time.Unix(0, *t0)).Seconds(), Layers: map[string]float64{}}
	if *probe {
		return writeJSON(*stem+".json", res)
	}
	var p *core.Pipeline
	if *mode == "resident" {
		p, err = buildResident(cfg, *trace, snapW, lintW, res.Layers)
	} else {
		_, err = core.StreamSnapshot(cfg, true, snapW, lintW)
	}
	if err != nil {
		return err
	}
	for _, out := range []struct {
		w *bufio.Writer
		f *os.File
	}{{snapW, snapF}, {lintW, lintF}} {
		if err := out.w.Flush(); err != nil {
			return err
		}
		if err := out.f.Close(); err != nil {
			return err
		}
	}
	res.BuildS = time.Since(start).Seconds()
	res.CPUS, res.PeakRSSMiB = selfUsage()

	if *trace {
		traceLayers(*mode, reg, cfg.Tracer, res.Layers)
	}
	if res.SnapSHA, err = fileSHA(*stem + ".v3"); err != nil {
		return err
	}
	if res.LintSHA, err = fileSHA(*stem + ".lc"); err != nil {
		return err
	}
	if p != nil {
		sum, err := json.Marshal(core.Summarize(p))
		if err != nil {
			return err
		}
		res.SummarySHA = sha(sum)
		if *fixture != "" {
			if err := writeFixture(*fixture, newFixture(p)); err != nil {
				return err
			}
		}
	}
	return writeJSON(*stem+".json", res)
}

// buildResident is core.Run followed by the two writers. Traced, it calls
// the stage methods core.Run calls, in the same order, timing each.
func buildResident(cfg core.Config, trace bool, snapW, lintW io.Writer, layers map[string]float64) (*core.Pipeline, error) {
	var p *core.Pipeline
	if trace {
		p = &core.Pipeline{Config: cfg}
		stages := []struct {
			layer string
			run   func() error
		}{
			{"devicesim.generate_s", p.Generate},
			{"scanner.scan_s", p.Scan},
			{"truststore.validate_s", p.Validate},
			{"certlint.lint_s", func() error { p.Lint(); return nil }},
			{"linking.link_s", func() error { p.Link(); return nil }},
			{"tracking.track_s", func() error { p.Track(); return nil }},
		}
		for _, st := range stages {
			if err := timed(layers, st.layer, st.run); err != nil {
				return nil, err
			}
		}
	} else {
		var err error
		if p, err = core.Run(cfg); err != nil {
			return nil, err
		}
	}
	if err := timed(layers, "snapshot.write_v3_s", func() error { return p.WriteSnapshotV3(snapW) }); err != nil {
		return nil, err
	}
	if err := timed(layers, "snapshot.write_lintcol_s", func() error { return p.WriteLintColumn(lintW) }); err != nil {
		return nil, err
	}
	return p, nil
}

func timed(layers map[string]float64, layer string, run func() error) error {
	start := time.Now()
	err := run()
	layers[layer] = time.Since(start).Seconds()
	return err
}

// streamSpans maps the stage spans core.StreamSnapshot emits to layers; its
// stages cannot be called one by one.
var streamSpans = map[string]string{
	"core.generate": "devicesim.stream_generate_s",
	"core.scan":     "scanner.stream_scan_s",
	"core.replay":   "snapshot.stream_replay_s",
	"core.snapshot": "snapshot.stream_finish_s",
	"core.lint":     "certlint.stream_lint_s",
}

// residentStages are the timed calls that make up a resident build.
var residentStages = []string{
	"devicesim.generate_s", "scanner.scan_s", "truststore.validate_s", "certlint.lint_s",
	"linking.link_s", "tracking.track_s", "snapshot.write_v3_s", "snapshot.write_lintcol_s",
}

// traceLayers derives the per-layer numbers a traced build leaves in its
// registry and tracer.
func traceLayers(mode string, reg *obs.Registry, tr *obs.Tracer, layers map[string]float64) {
	if mode == "streamed" {
		for _, sp := range tr.Tail() {
			if layer, ok := streamSpans[sp.Name]; ok {
				layers[layer] += sp.Dur.Seconds()
			}
		}
		layers["mem.spilled_runs"] = float64(reg.Gauge("mem.spilled_runs").Value())
		layers["mem.spilled_bytes"] = float64(reg.Gauge("mem.spilled_bytes").Value())
		layers["mem.merge_fanin"] = float64(reg.Gauge("mem.merge_fanin").Value())
		layers["mem.heap_high_water_mb"] = float64(reg.Gauge("mem.heap_high_water", obs.Volatile).Value()) / (1 << 20)
		return
	}
	hits := reg.Counter("core.validate.chain_memo.hits").Value()
	misses := reg.Counter("core.validate.chain_memo.misses").Value()
	layers["truststore.chain_memo_hit_ratio"] = ratio(hits, hits+misses)
	layers["linking.confirm_ratio"] = ratio(reg.Counter("linking.groups.confirmed").Value(), reg.Counter("linking.candidates").Value())
	layers["certlint.certs_per_s"] = float64(reg.Counter("lint.certs").Value()) / layers["certlint.lint_s"]
	var sum float64
	for _, layer := range residentStages {
		sum += layers[layer]
	}
	layers["trace.resident_stage_sum_s"] = sum
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// selfUsage returns this process's user+system CPU seconds and peak RSS.
func selfUsage() (cpuS, peakMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu.Seconds(), float64(ru.Maxrss) / 1024 // Linux reports ru_maxrss in KiB
}

func fileSHA(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
