package linking

import (
	"bytes"
	"cmp"
	"hash/maphash"
	"slices"
	"strings"
	"sync"

	"securepki/internal/analysis"
	"securepki/internal/obs"
	"securepki/internal/parallel"
	"securepki/internal/scanstore"
	"securepki/internal/x509lite"
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
	cert        *x509lite.Certificate
	id          scanstore.CertID
	first, last scanstore.ScanID // scans of the first and last sighting
	ipCN        bool
}

// Linker runs the §6 pipeline over a validated dataset.
type Linker struct {
	cfg     Config
	workers int
	obs     *obs.Registry
	ds      *analysis.Dataset

	eligible []certInfo // ascending by CertID
	byID     []int32    // by CertID: index into eligible, or -1
	// scratches holds the *scratch of each finished feature pass for the
	// next pass to reuse.
	scratches sync.Pool
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
	l := &Linker{cfg: cfg, workers: workers, obs: reg, ds: ds}
	l.scratches.New = func() any { return new(scratch) }
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

	n := 0
	for _, v := range verdicts {
		if v != skip {
			l.invalidTotal++
		}
		if v == eligible {
			n++
		}
	}
	l.excludedShared = l.invalidTotal - n
	l.eligible = make([]certInfo, 0, n)
	l.byID = make([]int32, len(certs))
	for i, v := range verdicts {
		l.byID[i] = -1
		if v != eligible {
			continue
		}
		rec := certs[i]
		scans := ds.Index.ScansSeen(rec.ID)
		l.byID[i] = int32(len(l.eligible))
		l.eligible = append(l.eligible, certInfo{
			cert:  rec.Cert,
			id:    rec.ID,
			first: scans[0],
			last:  scans[len(scans)-1],
			ipCN:  IPFormattedCN(rec.Cert),
		})
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
func (l *Linker) IsEligible(id scanstore.CertID) bool { return l.byID[id] >= 0 }

// ExcludedShared returns how many invalid certificates the §6.2 rule dropped
// (the paper's 1.6%).
func (l *Linker) ExcludedShared() int { return l.excludedShared }

// InvalidTotal returns the number of observed invalid certificates.
func (l *Linker) InvalidTotal() int { return l.invalidTotal }

// record is one certificate carrying one feature: the hash of the bytes
// Value renders, the certificate's first and last scan, and its index in
// eligible. Sorted by (key, first, last, idx), the records of one value sit
// in one run, already in the order the overlap rule reads them.
type record struct {
	key         uint64
	first, last scanstore.ScanID
	idx         int32
}

func compareRecords(a, b record) int {
	switch {
	case a.key != b.key:
		return cmp.Compare(a.key, b.key)
	case a.first != b.first:
		return cmp.Compare(a.first, b.first)
	case a.last != b.last:
		return cmp.Compare(a.last, b.last)
	}
	return cmp.Compare(a.idx, b.idx)
}

// keySeed seeds the record keys. Which values share a run never depends on
// it, because a run is split wherever the rendered bytes differ, and every
// output is ordered by value, so no output depends on it either.
var keySeed = maphash.MakeSeed()

// scratch holds the buffers one feature pass reuses: the records and the
// renderers that key them and check ties.
type scratch struct {
	recs    []record
	r, head renderer
}

// perFeature computes fn for every feature across the worker pool, in
// feature order, each call on a scratch no concurrent call holds.
func perFeature[T any](l *Linker, fn func(sc *scratch, f Feature) T) []T {
	return parallel.Map(l.workers, int(numFeatures), func(fi int) T {
		sc := l.scratches.Get().(*scratch)
		defer l.scratches.Put(sc)
		return fn(sc, Feature(fi))
	})
}

// records keys every eligible certificate that carries f and that include
// admits (nil admits all) into sc's buffer, sorted. For linking, IP-address
// Common Names are left out (§6.4.1).
func (l *Linker) records(sc *scratch, f Feature, include []bool, forLinking bool) []record {
	recs := sc.recs[:0]
	if cap(recs) < len(l.eligible) {
		recs = make([]record, 0, len(l.eligible))
	}
	for i := range l.eligible {
		info := &l.eligible[i]
		if include != nil && !include[info.id] {
			continue
		}
		if forLinking && f == FeatureCommonName && info.ipCN {
			continue
		}
		b, ok := sc.r.render(info.cert, f)
		if !ok {
			continue
		}
		recs = append(recs, record{key: maphash.Bytes(keySeed, b), first: info.first, last: info.last, idx: int32(i)})
	}
	slices.SortFunc(recs, compareRecords)
	sc.recs = recs
	return recs
}

// render renders the value of f on the certificate of record rec.
func (l *Linker) render(r *renderer, rec record, f Feature) []byte {
	b, _ := r.render(l.eligible[rec.idx].cert, f)
	return b
}

// runs calls fn on the records of each value of f, in sorted order. Equal
// keys are only a candidate match: their rendered bytes are compared, and a
// run whose bytes differ (a hash collision) is split by value, each part
// keeping its (first, last) order.
func (l *Linker) runs(sc *scratch, f Feature, recs []record, fn func(run []record)) {
	for lo := 0; lo < len(recs); {
		hi := lo + 1
		for hi < len(recs) && recs[hi].key == recs[lo].key {
			hi++
		}
		if run := recs[lo:hi]; len(run) == 1 || l.oneValue(sc, f, run) {
			fn(run)
		} else {
			l.splitByValue(f, run, fn)
		}
		lo = hi
	}
}

// oneValue reports whether every record of run renders the same bytes.
func (l *Linker) oneValue(sc *scratch, f Feature, run []record) bool {
	head := l.render(&sc.head, run[0], f)
	for _, rec := range run[1:] {
		if !bytes.Equal(l.render(&sc.r, rec, f), head) {
			return false
		}
	}
	return true
}

// splitByValue reorders a run of colliding keys by value, stably, and calls
// fn on each value's part.
func (l *Linker) splitByValue(f Feature, run []record, fn func(run []record)) {
	type valued struct {
		v   string
		rec record
	}
	vs := make([]valued, len(run))
	for i, rec := range run {
		v, _ := Value(l.eligible[rec.idx].cert, f)
		vs[i] = valued{v, rec}
	}
	slices.SortStableFunc(vs, func(a, b valued) int { return strings.Compare(a.v, b.v) })
	for i := range vs {
		run[i] = vs[i].rec
	}
	for lo := 0; lo < len(vs); {
		hi := lo + 1
		for hi < len(vs) && vs[hi].v == vs[lo].v {
			hi++
		}
		fn(run[lo:hi])
		lo = hi
	}
}

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
// worker per feature (the AllFeatures fan-out): a certificate is non-unique
// when its value's run holds more than its own record. Output stays in
// Table 5 column order because results are keyed by feature index.
func (l *Linker) FeatureUniqueness() []FeatureStat {
	return perFeature(l, func(sc *scratch, f Feature) FeatureStat {
		recs := l.records(sc, f, nil, false)
		nonUnique := 0
		l.runs(sc, f, recs, func(run []record) {
			if len(run) > 1 {
				nonUnique += len(run)
			}
		})
		stat := FeatureStat{Feature: f}
		if n := len(l.eligible); n > 0 {
			stat.NonUniqueFrac = float64(nonUnique) / float64(n)
			stat.PresentFrac = float64(len(recs)) / float64(n)
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

// linkable applies the §6.3.2 lifetime-overlap rule to one candidate group,
// ordered by (first, last) sighting: all pair-wise lifetime overlaps must be
// at most MaxOverlapScans scans. In that order the all-pairs check is a
// running maximum of last sightings.
func (l *Linker) linkable(run []record) bool {
	if len(run) < 2 {
		return false
	}
	maxLast := run[0].last
	for _, c := range run[1:] {
		// Scans in the intersection of [first,last] with the widest
		// predecessor interval.
		if maxLast >= c.first {
			overlap := int(min(maxLast, c.last)-c.first) + 1
			if overlap > l.cfg.MaxOverlapScans {
				return false
			}
		}
		maxLast = max(maxLast, c.last)
	}
	return true
}

// LinkOn links certificates by a single feature, returning only the groups
// that pass the overlap rule, sorted by value. include, indexed by CertID,
// restricts the population (nil = all eligible certs).
func (l *Linker) LinkOn(f Feature, include []bool) []Group {
	sc := l.scratches.Get().(*scratch)
	defer l.scratches.Put(sc)
	groups, _ := l.sweep(sc, f, l.records(sc, f, include, true))
	return groups
}

// confirm splits f's sorted records into runs of one value, each a
// candidate group, and returns the runs that pass the overlap rule, in
// place in recs, and how many candidates there were. It counts both.
func (l *Linker) confirm(sc *scratch, f Feature, recs []record) (confirmed [][]record, candidates int) {
	l.runs(sc, f, recs, func(run []record) {
		candidates++
		if l.linkable(run) {
			confirmed = append(confirmed, run)
		}
	})
	l.obs.Counter("linking.candidates").Add(int64(candidates))
	l.obs.Counter("linking.groups.confirmed").Add(int64(len(confirmed)))
	return confirmed, candidates
}

// sweep forms the groups of f from its sorted records: the value of each
// confirmed run is rendered to order the groups by it.
func (l *Linker) sweep(sc *scratch, f Feature, recs []record) (groups []Group, candidates int) {
	confirmed, candidates := l.confirm(sc, f, recs)
	for _, run := range confirmed {
		g := Group{Feature: f, Value: string(l.render(&sc.r, run[0], f)), Certs: make([]scanstore.CertID, len(run))}
		for j, rec := range run {
			g.Certs[j] = l.eligible[rec.idx].id
		}
		slices.Sort(g.Certs)
		groups = append(groups, g)
	}
	slices.SortFunc(groups, func(a, b Group) int { return strings.Compare(a.Value, b.Value) })
	return groups, candidates
}
