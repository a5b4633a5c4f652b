// Package scanner implements the ZMap-style measurement campaigns of §4.1:
// two operators (University of Michigan and Rapid7) repeatedly snapshot the
// simulated IPv4 population on their own cadences. The scan model reproduces
// the artefacts the paper had to engineer around:
//
//   - scans take hours, probe addresses in random order, and can therefore
//     observe a device at two addresses if it renumbers mid-scan (§6.2);
//   - each operator silently skips its own blacklist of BGP prefixes, which
//     is why the two "full" IPv4 datasets disagree (§4.1, Figure 1);
//   - individual probes are lost with a small probability.
//
// Scans are executed in chronological order (hosts are stateful and advance
// with the timeline), with the per-scan host sweep parallelised across
// workers; determinism is preserved by giving every (scan, host) pair its own
// seeded RNG and assembling observations in host order. One sweep function
// does this for both campaign drivers: Run hands it the whole population,
// StreamRun one chunk at a time.
package scanner

import (
	"fmt"
	"sort"
	"time"

	"securepki/internal/devicesim"
	"securepki/internal/netsim"
	"securepki/internal/parallel"
	"securepki/internal/scanstore"
	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// Config controls a two-operator campaign over one world.
type Config struct {
	Seed uint64

	// UMichScans snapshots are taken at irregular intervals between the
	// world's Start date and UMichEnd, including a stretch of daily scans
	// (the paper's 42-day daily run, scaled).
	UMichScans int
	UMichEnd   time.Time
	// Rapid7Scans snapshots run at a fixed cadence starting Rapid7Start.
	Rapid7Scans   int
	Rapid7Start   time.Time
	Rapid7Cadence time.Duration

	// CoScanDays forces this many Rapid7 scan dates to coincide with a
	// UMich scan (the paper had eight such days for its §4.1 comparison).
	CoScanDays int

	// ScanWindow is how long one full sweep takes (ZMap needed ~10 hours).
	ScanWindow time.Duration

	// MissProb drops individual observations (probe/packet loss).
	MissProb float64

	// BlacklistProbUMich / BlacklistProbRapid7: per-prefix probability of
	// being excluded from the respective operator's sweeps. Rapid7's larger
	// blacklist is why its scans are consistently smaller (§4.1).
	BlacklistProbUMich  float64
	BlacklistProbRapid7 float64

	// Workers for the per-scan host sweep; 0 means GOMAXPROCS.
	Workers int
}

// DefaultConfig returns the campaign sizing used by the experiments.
func DefaultConfig() Config {
	return Config{
		Seed:                7,
		UMichScans:          30,
		UMichEnd:            time.Date(2014, 1, 29, 0, 0, 0, 0, time.UTC),
		Rapid7Scans:         17,
		Rapid7Start:         time.Date(2013, 10, 30, 0, 0, 0, 0, time.UTC),
		Rapid7Cadence:       14 * 24 * time.Hour,
		CoScanDays:          4,
		ScanWindow:          10 * time.Hour,
		MissProb:            0.02,
		BlacklistProbUMich:  0.025,
		BlacklistProbRapid7: 0.20,
	}
}

// Truth is the simulation ground truth the paper lacked: which host produced
// each certificate. The linking evaluation uses it to measure real
// precision, complementing the paper's IP/AS-consistency proxies.
type Truth struct {
	// CertHosts maps certificate fingerprints to the set of host indexes
	// (world.Hosts() order) that ever served them.
	CertHosts map[x509lite.Fingerprint]map[int]bool
}

// HostsFor returns the host set for a fingerprint. A nil Truth — a corpus
// loaded from a snapshot, where ground truth was never captured — knows no
// hosts for anything.
func (t *Truth) HostsFor(fp x509lite.Fingerprint) map[int]bool {
	if t == nil {
		return nil
	}
	return t.CertHosts[fp]
}

// SoleHost returns the host index if exactly one host ever served the
// certificate. On a nil Truth every certificate is unknown.
func (t *Truth) SoleHost(fp x509lite.Fingerprint) (int, bool) {
	if t == nil {
		return 0, false
	}
	hs := t.CertHosts[fp]
	if len(hs) != 1 {
		return 0, false
	}
	for h := range hs {
		return h, true
	}
	return 0, false
}

// plannedScan is one scheduled snapshot.
type plannedScan struct {
	op scanstore.Operator
	at time.Time
}

// Campaign holds the compiled schedule and blacklists for a run.
type Campaign struct {
	cfg       Config
	world     *devicesim.World
	schedule  []plannedScan
	blacklist map[scanstore.Operator]map[netsim.Prefix]bool
}

// New compiles a campaign over the world: builds both operators' schedules
// (with forced co-scan days) and draws the per-operator prefix blacklists.
func New(world *devicesim.World, cfg Config) (*Campaign, error) {
	if cfg.UMichScans <= 0 && cfg.Rapid7Scans <= 0 {
		return nil, fmt.Errorf("scanner: campaign with no scans")
	}
	if cfg.ScanWindow <= 0 {
		return nil, fmt.Errorf("scanner: non-positive scan window")
	}
	r := stats.NewRNG(cfg.Seed)

	umichEnd := cfg.UMichEnd
	if umichEnd.IsZero() {
		umichEnd = world.Config.Start.AddDate(0, 0, 598) // the paper's UMich span
	}
	umich := umichSchedule(world.Config.Start, umichEnd, cfg.UMichScans, r.Split())
	rapid7 := make([]time.Time, 0, cfg.Rapid7Scans)
	for i := 0; i < cfg.Rapid7Scans; i++ {
		rapid7 = append(rapid7, cfg.Rapid7Start.Add(time.Duration(i)*cfg.Rapid7Cadence))
	}
	// Force co-scan days: add UMich scans on the first CoScanDays Rapid7
	// dates that fall inside the UMich series' span.
	forced := 0
	if len(umich) > 0 {
		first, last := umich[0], umich[len(umich)-1]
		for _, t := range rapid7 {
			if forced >= cfg.CoScanDays {
				break
			}
			if !t.Before(first) && !t.After(last) {
				umich = append(umich, t)
				forced++
			}
		}
	}
	sort.Slice(umich, func(i, j int) bool { return umich[i].Before(umich[j]) })

	var schedule []plannedScan
	for _, t := range umich {
		schedule = append(schedule, plannedScan{op: scanstore.UMich, at: t})
	}
	for _, t := range rapid7 {
		schedule = append(schedule, plannedScan{op: scanstore.Rapid7, at: t})
	}
	sort.SliceStable(schedule, func(i, j int) bool {
		if !schedule[i].at.Equal(schedule[j].at) {
			return schedule[i].at.Before(schedule[j].at)
		}
		return schedule[i].op < schedule[j].op
	})

	// Per-operator BGP-prefix blacklists, drawn independently.
	bl := map[scanstore.Operator]map[netsim.Prefix]bool{
		scanstore.UMich:  make(map[netsim.Prefix]bool),
		scanstore.Rapid7: make(map[netsim.Prefix]bool),
	}
	blRNG := r.Split()
	for _, as := range world.Internet.ASes() {
		for _, p := range as.Prefixes() {
			if blRNG.Bool(cfg.BlacklistProbUMich) {
				bl[scanstore.UMich][p] = true
			}
			if blRNG.Bool(cfg.BlacklistProbRapid7) {
				bl[scanstore.Rapid7][p] = true
			}
		}
	}
	return &Campaign{cfg: cfg, world: world, schedule: schedule, blacklist: bl}, nil
}

// umichSchedule reproduces the irregular UMich cadence over [start, end]:
// variable gaps sized to fill the span, plus one stretch of consecutive
// daily scans (the paper's 42-day daily run, scaled).
func umichSchedule(start, end time.Time, n int, r *stats.RNG) []time.Time {
	if n <= 0 {
		return nil
	}
	if n == 1 || !end.After(start) {
		return []time.Time{start}
	}
	spanDays := int(end.Sub(start).Hours() / 24)
	dailyRunStart := n / 3
	dailyRunLen := n / 6
	wide := n - 1 - dailyRunLen
	meanGap := float64(spanDays-dailyRunLen) / float64(wide)
	out := []time.Time{start}
	for len(out) < n {
		i := len(out)
		var gapDays int
		if i >= dailyRunStart && i < dailyRunStart+dailyRunLen {
			gapDays = 1
		} else {
			// Uniform in [0.5, 1.5] x mean, at least one day.
			gapDays = int(meanGap * (0.5 + r.Float64()))
			if gapDays < 1 {
				gapDays = 1
			}
		}
		out = append(out, out[len(out)-1].AddDate(0, 0, gapDays))
	}
	return out
}

// Schedule returns the merged chronological scan plan (operator, date).
func (c *Campaign) Schedule() []scanstore.Scan {
	out := make([]scanstore.Scan, len(c.schedule))
	for i, p := range c.schedule {
		out[i] = scanstore.Scan{ID: scanstore.ScanID(i), Operator: p.op, Time: p.at}
	}
	return out
}

// Blacklisted reports whether an operator skips the prefix.
func (c *Campaign) Blacklisted(op scanstore.Operator, p netsim.Prefix) bool {
	return c.blacklist[op][p]
}

// Run executes every scheduled scan in order and returns the corpus and the
// ground truth: the whole population is swept as one chunk, interning each
// sighting into the corpus in the order the sweep delivers it.
func (c *Campaign) Run() (*scanstore.Corpus, *Truth, error) {
	corpus := scanstore.NewCorpus()
	truth := &Truth{CertHosts: make(map[x509lite.Fingerprint]map[int]bool)}
	obs := make([][]scanstore.Observation, len(c.schedule))
	c.sweep(c.world.Hosts(), 0, c.lossRNGs(), func(scan, host int, cert *x509lite.Certificate, ip netsim.IP) {
		obs[scan] = append(obs[scan], scanstore.Observation{Cert: corpus.Intern(cert), IP: ip})
		fp := cert.Fingerprint()
		set, ok := truth.CertHosts[fp]
		if !ok {
			set = make(map[int]bool)
			truth.CertHosts[fp] = set
		}
		set[host] = true
	})
	for i, plan := range c.schedule {
		if _, err := corpus.AddScan(plan.op, plan.at, obs[i]); err != nil {
			return nil, nil, err
		}
	}
	return corpus, truth, nil
}

// lossRNGs returns one packet-loss RNG per scheduled scan.
func (c *Campaign) lossRNGs() []*stats.RNG {
	rngs := make([]*stats.RNG, len(c.schedule))
	for i := range rngs {
		rngs[i] = stats.NewRNG(c.cfg.Seed ^ 0xabcd ^ uint64(i))
	}
	return rngs
}

// sweep advances hosts, whose global indexes start at base, through every
// scheduled scan. Per scan, the host sweep fans out across the configured
// workers, each (scan, host) pair drawing from an RNG seeded by the global
// host index; the blacklist and loss filter then run serially in host order,
// consuming lossRNGs[scan], and every certificate of a surviving chain goes
// to sink with its scan, global host index and address.
func (c *Campaign) sweep(hosts []devicesim.Host, base int, lossRNGs []*stats.RNG, sink func(scan, host int, cert *x509lite.Certificate, ip netsim.IP)) {
	results := make([][]devicesim.Appearance, len(hosts))
	for scanIdx, plan := range c.schedule {
		start, end := plan.at, plan.at.Add(c.cfg.ScanWindow)
		parallel.ForEach(c.cfg.Workers, len(hosts), func(h int) {
			seed := c.cfg.Seed ^ (uint64(scanIdx+1) << 32) ^ uint64(base+h)*0x9e3779b97f4a7c15
			results[h] = hosts[h].Appearances(start, end, stats.NewRNG(seed))
		})
		lossRNG := lossRNGs[scanIdx]
		for h, apps := range results {
			for _, app := range apps {
				prefix, routed := c.world.Internet.PrefixOf(app.IP)
				if !routed || c.blacklist[plan.op][prefix] || lossRNG.Bool(c.cfg.MissProb) {
					continue
				}
				for _, cert := range app.Chain {
					sink(scanIdx, base+h, cert, app.IP)
				}
			}
			results[h] = nil
		}
	}
}
