package linking

import (
	"sort"

	"securepki/internal/analysis"
	"securepki/internal/obs"
	"securepki/internal/parallel"
	"securepki/internal/scanstore"
)

// Config tunes the linking pipeline. DefaultConfig matches the paper.
type Config struct {
	// MaxIPsPerScan is the §6.2 uniqueness threshold: a certificate seen at
	// more than this many addresses in one scan is considered shared.
	MaxIPsPerScan int
	// MaxOverlapScans is the lifetime-overlap tolerance of §6.3.2 (one scan,
	// because devices renumber mid-scan).
	MaxOverlapScans int
	// MinASConsistency rejects fields whose AS-level consistency falls
	// below this bound when building the final iterative linking (§6.4.3;
	// the paper uses 90%).
	MinASConsistency float64
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{MaxIPsPerScan: 2, MaxOverlapScans: 1, MinASConsistency: 0.9}
}

// certInfo caches per-certificate state the linker needs repeatedly.
type certInfo struct {
	id        scanstore.CertID
	firstScan int // global scan index of first sighting
	lastScan  int
	ipCN      bool
}

// Linker runs the §6 pipeline over a validated dataset.
type Linker struct {
	cfg     Config
	workers int
	obs     *obs.Registry
	ds      *analysis.Dataset

	eligible []certInfo
	byID     map[scanstore.CertID]*certInfo
	// excludedShared counts invalid certs dropped by the §6.2 rule.
	excludedShared int
	invalidTotal   int
}

// NewLinker applies the §6.2 scan-duplicate rule to the dataset's invalid
// certificates and prepares the eligible population. Workers bounds the
// linker's parallel passes (eligibility filtering, per-feature fan-out,
// group consistency checks); <= 0 means GOMAXPROCS. The per-certificate
// uniqueness checks fan out first; the eligible slice is then assembled
// serially in certificate-ID order, so the population, like every result,
// is identical at any worker count. reg receives the linking.* counters
// (candidate groups examined, groups confirmed by the overlap rule), which
// are pure functions of the dataset and so worker-independent; nil
// disables instrumentation.
func NewLinker(ds *analysis.Dataset, cfg Config, workers int, reg *obs.Registry) *Linker {
	l := &Linker{cfg: cfg, workers: workers, obs: reg, ds: ds, byID: make(map[scanstore.CertID]*certInfo)}
	certs := ds.Corpus.Certs()

	// verdict per certificate: 0 not invalid/unseen, 1 excluded shared,
	// 2 eligible.
	const (
		skip = iota
		shared
		eligible
	)
	verdicts := parallel.Map(workers, len(certs), func(i int) int8 {
		rec := certs[i]
		if !rec.Status.Invalid() {
			return skip
		}
		scans := ds.Index.ScansSeen(rec.ID)
		if len(scans) == 0 {
			return skip
		}
		if !l.passesUniqueness(rec.ID, scans) {
			return shared
		}
		return eligible
	})

	for i, v := range verdicts {
		switch v {
		case shared:
			l.invalidTotal++
			l.excludedShared++
		case eligible:
			l.invalidTotal++
			rec := certs[i]
			scans := ds.Index.ScansSeen(rec.ID)
			l.eligible = append(l.eligible, certInfo{
				id:        rec.ID,
				firstScan: int(scans[0]),
				lastScan:  int(scans[len(scans)-1]),
				ipCN:      IPFormattedCN(rec.Cert),
			})
		}
	}
	for i := range l.eligible {
		l.byID[l.eligible[i].id] = &l.eligible[i]
	}
	return l
}

// passesUniqueness implements §6.2: at most MaxIPsPerScan addresses in any
// scan, except that a certificate seen at exactly two addresses in *every*
// scan is two devices, not one mid-scan renumbering, and is excluded.
func (l *Linker) passesUniqueness(id scanstore.CertID, scans []scanstore.ScanID) bool {
	alwaysTwo := true
	for _, s := range scans {
		n := len(l.ds.Index.IPsInScan(id, s))
		if n > l.cfg.MaxIPsPerScan {
			return false
		}
		if n != 2 {
			alwaysTwo = false
		}
	}
	if alwaysTwo && len(scans) > 1 && l.cfg.MaxIPsPerScan >= 2 {
		return false
	}
	return true
}

// EligibleCount returns how many invalid certificates survive §6.2 (the
// paper keeps 69,481,047 of 70.6M).
func (l *Linker) EligibleCount() int { return len(l.eligible) }

// IsEligible reports whether the certificate survived the §6.2 rule; the
// tracker uses this to keep shared (fleet) certificates out of the device
// population.
func (l *Linker) IsEligible(id scanstore.CertID) bool {
	_, ok := l.byID[id]
	return ok
}

// ExcludedShared returns how many invalid certificates the §6.2 rule dropped
// (the paper's 1.6%).
func (l *Linker) ExcludedShared() int { return l.excludedShared }

// InvalidTotal returns the number of observed invalid certificates.
func (l *Linker) InvalidTotal() int { return l.invalidTotal }

// FeatureStat is one row of Table 5.
type FeatureStat struct {
	Feature Feature
	// NonUniqueFrac is the fraction of eligible invalid certificates whose
	// value for this feature also appears on some other certificate.
	NonUniqueFrac float64
	// PresentFrac is the fraction of certificates that carry the feature at
	// all (CRL/AIA/OCSP/OID are nearly absent from invalid certs: §6.3.1).
	PresentFrac float64
}

// FeatureUniqueness computes Table 5 over the eligible population, one
// worker per feature (the AllFeatures fan-out); output stays in Table 5
// column order because results are keyed by feature index.
func (l *Linker) FeatureUniqueness() []FeatureStat {
	return parallel.Map(l.workers, int(numFeatures), func(fi int) FeatureStat {
		f := Feature(fi)
		counts := make(map[string]int)
		present := 0
		for i := range l.eligible {
			cert := l.ds.Corpus.Cert(l.eligible[i].id).Cert
			v, ok := Value(cert, f)
			if !ok {
				continue
			}
			present++
			counts[v]++
		}
		nonUnique := 0
		for i := range l.eligible {
			cert := l.ds.Corpus.Cert(l.eligible[i].id).Cert
			v, ok := Value(cert, f)
			if ok && counts[v] > 1 {
				nonUnique++
			}
		}
		stat := FeatureStat{Feature: f}
		if n := len(l.eligible); n > 0 {
			stat.NonUniqueFrac = float64(nonUnique) / float64(n)
			stat.PresentFrac = float64(present) / float64(n)
		}
		return stat
	})
}

// Group is one linked set of certificates attributed to a single device.
type Group struct {
	Feature Feature
	Value   string
	Certs   []scanstore.CertID
}

// groupCandidates collects, for one feature, value → eligible certs carrying
// that value, restricted to the given eligibility set (nil = all).
func (l *Linker) groupCandidates(f Feature, include map[scanstore.CertID]bool) map[string][]*certInfo {
	groups := make(map[string][]*certInfo)
	for i := range l.eligible {
		info := &l.eligible[i]
		if include != nil && !include[info.id] {
			continue
		}
		if f == FeatureCommonName && info.ipCN {
			// §6.4.1: IP-address CNs are excluded from CN linking.
			continue
		}
		cert := l.ds.Corpus.Cert(info.id).Cert
		v, ok := Value(cert, f)
		if !ok {
			continue
		}
		groups[v] = append(groups[v], info)
	}
	return groups
}

// linkable applies the §6.3.2 lifetime-overlap rule to one candidate group:
// all pair-wise lifetime overlaps must be at most MaxOverlapScans scans.
// Sorting by first sighting reduces the all-pairs check to a running
// maximum of last sightings.
func (l *Linker) linkable(group []*certInfo) bool {
	if len(group) < 2 {
		return false
	}
	sorted := append([]*certInfo(nil), group...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].firstScan != sorted[j].firstScan {
			return sorted[i].firstScan < sorted[j].firstScan
		}
		return sorted[i].lastScan < sorted[j].lastScan
	})
	maxLast := sorted[0].lastScan
	for i := 1; i < len(sorted); i++ {
		c := sorted[i]
		// Scans in the intersection of [first,last] with the widest
		// predecessor interval.
		if maxLast >= c.firstScan {
			overlap := min(maxLast, c.lastScan) - c.firstScan + 1
			if overlap > l.cfg.MaxOverlapScans {
				return false
			}
		}
		if c.lastScan > maxLast {
			maxLast = c.lastScan
		}
	}
	return true
}

// LinkOn links certificates by a single feature, returning only the groups
// that pass the overlap rule, sorted by value. include restricts the
// population (nil = all eligible certs). The per-group pairwise overlap
// checks fan out across the worker pool; candidate values are sorted before
// the fan-out, so group order never depends on scheduling (or on map
// iteration order).
func (l *Linker) LinkOn(f Feature, include map[scanstore.CertID]bool) []Group {
	cands := l.groupCandidates(f, include)
	values := make([]string, 0, len(cands))
	for v := range cands {
		values = append(values, v)
	}
	sort.Strings(values)
	l.obs.Counter("linking.candidates").Add(int64(len(values)))

	checked := parallel.Map(l.workers, len(values), func(i int) *Group {
		v := values[i]
		members := cands[v]
		if !l.linkable(members) {
			return nil
		}
		g := &Group{Feature: f, Value: v, Certs: make([]scanstore.CertID, len(members))}
		for j, m := range members {
			g.Certs[j] = m.id
		}
		sort.Slice(g.Certs, func(a, b int) bool { return g.Certs[a] < g.Certs[b] })
		return g
	})

	var out []Group
	for _, g := range checked {
		if g != nil {
			out = append(out, *g)
		}
	}
	l.obs.Counter("linking.groups.confirmed").Add(int64(len(out)))
	return out
}
