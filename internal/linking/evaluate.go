package linking

import (
	"slices"
	"sort"

	"securepki/internal/netsim"
	"securepki/internal/parallel"
	"securepki/internal/scanstore"
	"securepki/internal/stats"
)

// FieldEval is one column of Table 6.
type FieldEval struct {
	Feature Feature
	// TotalLinked certificates fall in linkable groups for this field;
	// UniquelyLinked are linked by this field and no other.
	TotalLinked    int
	UniquelyLinked int
	// Consistency proxies (§6.4.1): how often a linked group's sightings
	// concentrate on one IP, one /24, one AS.
	IPConsistency  float64
	S24Consistency float64
	ASConsistency  float64
	NumGroups      int
}

// featureEval is one feature's Table 6 score and the eligible indices of
// the certificates it links.
type featureEval struct {
	ev     FieldEval
	linked []int32
}

// evalFeature links f over every eligible certificate and scores its
// groups straight from their record runs, building no Group.
func (l *Linker) evalFeature(sc *scratch, f Feature) featureEval {
	groups, _ := l.confirm(sc, f, l.records(sc, f, nil, true))
	ev := l.evalGroups(f, groups)
	linked := make([]int32, 0, ev.TotalLinked)
	for _, run := range groups {
		for _, rec := range run {
			linked = append(linked, rec.idx)
		}
	}
	return featureEval{ev: ev, linked: linked}
}

// evalGroups scores already-linked groups for one field. The per-group modal
// counts fan out across the worker pool; the final sums are order-free
// integer additions, so the score is identical at any worker count.
func (l *Linker) evalGroups(f Feature, groups [][]record) FieldEval {
	ev := FieldEval{Feature: f, NumGroups: len(groups)}
	type modal struct{ ip, s24, as, total int }
	perGroup := parallel.Map(l.workers, len(groups), func(i int) modal {
		im, sm, am, n := l.groupConsistencyCounts(groups[i])
		return modal{im, sm, am, n}
	})
	var ipMax, s24Max, asMax, total int
	for i, m := range perGroup {
		ev.TotalLinked += len(groups[i])
		ipMax += m.ip
		s24Max += m.s24
		asMax += m.as
		total += m.total
	}
	if total > 0 {
		ev.IPConsistency = float64(ipMax) / float64(total)
		ev.S24Consistency = float64(s24Max) / float64(total)
		ev.ASConsistency = float64(asMax) / float64(total)
	}
	return ev
}

// groupConsistencyCounts implements the paper's §6.4.1 example: over all of
// the group's sightings, how many fall on the modal IP, modal /24 and modal
// AS (the denominators are the sighting count). Sorted, each modal count is
// the longest run; a /24 is an IP with its low byte cleared, so the sorted
// IPs stay sorted as /24s. The buffers start on the stack and cover a
// group's sightings in all but the largest groups.
func (l *Linker) groupConsistencyCounts(run []record) (ipMax, s24Max, asMax, total int) {
	var ipBuf [64]netsim.IP
	var asBuf [64]int
	ips, ases := ipBuf[:0], asBuf[:0]
	for _, rec := range run {
		for _, sg := range l.ds.Index.Sightings(l.eligible[rec.idx].id) {
			ips = append(ips, sg.IP)
			if as := l.ds.Internet.Lookup(sg.IP, l.ds.Corpus.Scan(sg.Scan).Time); as != nil {
				ases = append(ases, as.ASN)
			}
		}
	}
	slices.Sort(ips)
	ipMax = longestRun(ips)
	for i := range ips {
		ips[i] = ips[i].Slash24()
	}
	s24Max = longestRun(ips)
	slices.Sort(ases)
	asMax = longestRun(ases)
	return ipMax, s24Max, asMax, len(ips)
}

// longestRun returns the length of the longest run of equal elements.
func longestRun[T comparable](s []T) int {
	best := 0
	for lo := 0; lo < len(s); {
		hi := lo + 1
		for hi < len(s) && s[hi] == s[lo] {
			hi++
		}
		best = max(best, hi-lo)
		lo = hi
	}
	return best
}

// EvaluateAll produces Table 6: every field scored independently, with the
// uniquely-linked counts computed across fields. Fields fan out across the
// worker pool (each links and scores once — the serial version used to link
// every field twice); the cross-field uniqueness merge runs serially in
// Table 6 column order.
func (l *Linker) EvaluateAll() []FieldEval {
	results := perFeature(l, l.evalFeature)

	// only[i] is 1 + the one feature that links eligible certificate i, 0
	// when none does and -1 when several do.
	only := make([]int8, len(l.eligible))
	for fi, r := range results {
		for _, i := range r.linked {
			if only[i] == 0 {
				only[i] = int8(fi + 1)
			} else {
				only[i] = -1
			}
		}
	}
	var unique [numFeatures]int
	for _, o := range only {
		if o > 0 {
			unique[o-1]++
		}
	}
	evals := make([]FieldEval, 0, numFeatures)
	for _, r := range results {
		ev := r.ev
		ev.UniquelyLinked = unique[ev.Feature]
		evals = append(evals, ev)
	}
	return evals
}

// Result is the outcome of the full §6.4.3 iterative linking.
type Result struct {
	// FieldOrder is the accepted fields in application order (descending
	// AS-level consistency, thresholded at MinASConsistency).
	FieldOrder []Feature
	// Rejected fields fell below the AS-consistency bound (the paper drops
	// NotBefore, NotAfter and Issuer+Serial).
	Rejected []Feature
	// Groups are the final linked groups.
	Groups []Group
	// LinkedCerts / EligibleCerts give the paper's headline coverage
	// (27.4M of 69.5M = 39.4%).
	LinkedCerts   int
	EligibleCerts int
	// Evals is Table 6, the evaluation Link ordered the fields by: one
	// FieldEval per feature, in feature order. LinkWithOrder evaluates
	// nothing and leaves it nil.
	Evals []FieldEval
}

// LinkedFraction returns LinkedCerts / EligibleCerts.
func (r Result) LinkedFraction() float64 {
	if r.EligibleCerts == 0 {
		return 0
	}
	return float64(r.LinkedCerts) / float64(r.EligibleCerts)
}

// Link runs the full pipeline: evaluate every field, order the accepted ones
// by AS-level consistency, then iteratively link and remove (§6.4.3).
func (l *Linker) Link() Result {
	evals := l.EvaluateAll()
	return l.linkWithEvals(evals)
}

// LinkWithOrder runs iterative linking with an explicit field order,
// bypassing the consistency threshold — the ablation benches use this to
// show why the paper's ordering matters.
func (l *Linker) LinkWithOrder(order []Feature) Result {
	res := Result{FieldOrder: order, EligibleCerts: len(l.eligible)}
	l.runIterative(&res)
	return res
}

func (l *Linker) linkWithEvals(evals []FieldEval) Result {
	res := Result{EligibleCerts: len(l.eligible), Evals: evals}
	accepted := make([]FieldEval, 0, len(evals))
	for _, ev := range evals {
		if ev.TotalLinked == 0 {
			continue
		}
		if ev.ASConsistency < l.cfg.MinASConsistency {
			res.Rejected = append(res.Rejected, ev.Feature)
			continue
		}
		accepted = append(accepted, ev)
	}
	sort.SliceStable(accepted, func(i, j int) bool {
		return accepted[i].ASConsistency > accepted[j].ASConsistency
	})
	for _, ev := range accepted {
		res.FieldOrder = append(res.FieldOrder, ev.Feature)
	}
	l.runIterative(&res)
	return res
}

func (l *Linker) runIterative(res *Result) {
	remaining := make([]bool, len(l.byID))
	for i := range l.eligible {
		remaining[l.eligible[i].id] = true
	}
	for _, f := range res.FieldOrder {
		groups := l.LinkOn(f, remaining)
		for _, g := range groups {
			res.Groups = append(res.Groups, g)
			res.LinkedCerts += len(g.Certs)
			for _, id := range g.Certs {
				remaining[id] = false
			}
		}
	}
}

// GroupSizeCDF returns Figure 10's distribution of group sizes, optionally
// restricted to one feature (pass nil for all).
func GroupSizeCDF(groups []Group, f *Feature) *stats.CDF {
	var sizes []float64
	for _, g := range groups {
		if f != nil && g.Feature != *f {
			continue
		}
		sizes = append(sizes, float64(len(g.Certs)))
	}
	return stats.NewCDF(sizes)
}

// LifetimeChange quantifies §6.4.4: how linking changes apparent lifetimes.
type LifetimeChange struct {
	// Before: per-certificate lifetimes over eligible certs.
	SingleScanFracBefore float64
	MeanLifetimeBefore   float64
	// After: linked groups contribute one merged lifetime; unlinked certs
	// keep their own.
	SingleScanFracAfter float64
	MeanLifetimeAfter   float64
}

// EvaluateLifetimeChange computes §6.4.4 for a linking result.
func (l *Linker) EvaluateLifetimeChange(res Result) LifetimeChange {
	var lc LifetimeChange
	var nBefore, singleBefore int
	var sumBefore float64
	linked := make([]bool, len(l.byID))
	for _, g := range res.Groups {
		for _, id := range g.Certs {
			linked[id] = true
		}
	}

	for i := range l.eligible {
		info := &l.eligible[i]
		lt, ok := l.ds.Index.LifetimeDays(info.id)
		if !ok {
			continue
		}
		nBefore++
		sumBefore += float64(lt)
		if len(l.ds.Index.ScansSeen(info.id)) == 1 {
			singleBefore++
		}
	}

	var nAfter, singleAfter int
	var sumAfter float64
	// Unlinked certificates carry over unchanged.
	for i := range l.eligible {
		info := &l.eligible[i]
		if linked[info.id] {
			continue
		}
		lt, ok := l.ds.Index.LifetimeDays(info.id)
		if !ok {
			continue
		}
		nAfter++
		sumAfter += float64(lt)
		if len(l.ds.Index.ScansSeen(info.id)) == 1 {
			singleAfter++
		}
	}
	// Each linked group becomes one entity spanning first to last sighting.
	for _, g := range res.Groups {
		var first, last scanstore.ScanID
		var scansSeen int
		for i, id := range g.Certs {
			info := &l.eligible[l.byID[id]]
			if i == 0 || info.first < first {
				first = info.first
			}
			if i == 0 || info.last > last {
				last = info.last
			}
			scansSeen += len(l.ds.Index.ScansSeen(id))
		}
		firstT := l.ds.Corpus.Scan(first).Time
		lastT := l.ds.Corpus.Scan(last).Time
		days := lastT.Sub(firstT).Hours()/24 + 1
		nAfter++
		sumAfter += days
		if scansSeen == 1 {
			singleAfter++
		}
	}

	if nBefore > 0 {
		lc.SingleScanFracBefore = float64(singleBefore) / float64(nBefore)
		lc.MeanLifetimeBefore = sumBefore / float64(nBefore)
	}
	if nAfter > 0 {
		lc.SingleScanFracAfter = float64(singleAfter) / float64(nAfter)
		lc.MeanLifetimeAfter = sumAfter / float64(nAfter)
	}
	return lc
}
