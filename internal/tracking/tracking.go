// Package tracking implements the paper's §7 applications: once invalid
// certificates are linked into per-device groups, devices can be followed
// across the address space — counting trackable devices (§7.2), observing
// movement between ASes and countries including bulk IP-block transfers
// (§7.3), and inferring per-AS address-reassignment policies (§7.4,
// Figure 11).
package tracking

import (
	"sort"
	"time"

	"securepki/internal/analysis"
	"securepki/internal/linking"
	"securepki/internal/netsim"
	"securepki/internal/scanstore"
	"securepki/internal/stats"
)

// Entity is one tracked device: either a linked certificate group or a
// single unlinked certificate.
type Entity struct {
	Certs     []scanstore.CertID
	Sightings []scanstore.Sighting // chronological by scan
	Linked    bool
}

// Span returns the entity's observation window.
func (e *Entity) Span(corpus *scanstore.Corpus) time.Duration {
	if len(e.Sightings) == 0 {
		return 0
	}
	first := corpus.Scan(e.Sightings[0].Scan).Time
	last := corpus.Scan(e.Sightings[len(e.Sightings)-1].Scan).Time
	return last.Sub(first)
}

// Tracker derives device entities from a linking result.
type Tracker struct {
	ds       *analysis.Dataset
	entities []*Entity
}

// NewTracker merges the linking result into device entities: every linked
// group becomes one entity; every eligible-but-unlinked invalid certificate
// becomes its own entity.
func NewTracker(ds *analysis.Dataset, res linking.Result, linker *linking.Linker) *Tracker {
	t := &Tracker{ds: ds}
	inGroup := make([]bool, ds.Corpus.NumCerts())
	for _, g := range res.Groups {
		e := &Entity{Certs: g.Certs, Linked: true}
		for _, id := range g.Certs {
			inGroup[id] = true
			e.Sightings = append(e.Sightings, ds.Index.Sightings(id)...)
		}
		sort.Slice(e.Sightings, func(i, j int) bool { return e.Sightings[i].Scan < e.Sightings[j].Scan })
		t.entities = append(t.entities, e)
	}
	for _, rec := range ds.Corpus.Certs() {
		if !rec.Status.Invalid() || inGroup[rec.ID] {
			continue
		}
		// Certificates that failed the §6.2 uniqueness rule are shared
		// across devices and cannot stand for a single one.
		if linker != nil && !linker.IsEligible(rec.ID) {
			continue
		}
		sightings := ds.Index.Sightings(rec.ID)
		if len(sightings) == 0 {
			continue
		}
		t.entities = append(t.entities, &Entity{
			Certs:     []scanstore.CertID{rec.ID},
			Sightings: sightings,
		})
	}
	return t
}

// Entities returns every derived device entity.
func (t *Tracker) Entities() []*Entity { return t.entities }

// TrackableReport is §7.2.
type TrackableReport struct {
	// Baseline devices are trackable without linking: single certificates
	// observed for at least MinSpan (paper: 5,585,965).
	Baseline int
	// WithLinking counts entities (groups or single certs) spanning at
	// least MinSpan (paper: 6,750,744, +17.2%).
	WithLinking int
	MinSpan     time.Duration
}

// Gain returns the relative increase linking provides.
func (r TrackableReport) Gain() float64 {
	if r.Baseline == 0 {
		return 0
	}
	return float64(r.WithLinking)/float64(r.Baseline) - 1
}

// Trackable computes §7.2 with the paper's one-year threshold.
func (t *Tracker) Trackable(minSpan time.Duration) TrackableReport {
	rep := TrackableReport{MinSpan: minSpan}
	for _, e := range t.entities {
		if t.ds.Corpus == nil {
			continue
		}
		span := e.Span(t.ds.Corpus)
		if span < minSpan {
			continue
		}
		rep.WithLinking++
		if !e.Linked {
			rep.Baseline++
		}
	}
	return rep
}

// asAt returns the AS observed for a sighting.
func (t *Tracker) asAt(sg scanstore.Sighting) *netsim.AS {
	return t.ds.Internet.Lookup(sg.IP, t.ds.Corpus.Scan(sg.Scan).Time)
}

// asTimeline collapses an entity's sightings into its sequence of distinct
// consecutive (scan, ASN) steps.
type asStep struct {
	scan scanstore.ScanID
	as   *netsim.AS
}

func (t *Tracker) asTimeline(e *Entity) []asStep {
	var steps []asStep
	for _, sg := range e.Sightings {
		as := t.asAt(sg)
		if as == nil {
			continue
		}
		if n := len(steps); n > 0 && steps[n-1].as.ASN == as.ASN {
			steps[n-1].scan = sg.Scan
			continue
		}
		steps = append(steps, asStep{scan: sg.Scan, as: as})
	}
	return steps
}

// BulkTransfer is one detected mass movement of devices between two ASes
// within one scan interval (§7.3's IP-block transfers).
type BulkTransfer struct {
	FromASN, ToASN int
	ScanTo         scanstore.ScanID
	Devices        int
}

// MovementReport is §7.3.
type MovementReport struct {
	TrackedDevices   int
	DevicesChanging  int // changed AS at least once (paper: 718,495)
	TotalTransitions int // paper: 1,328,223
	// ChangedOnceFrac of the devices that changed, changed exactly once
	// (paper: 69.7%).
	ChangedOnceFrac float64
	// CountryMoves counts devices that ever moved between countries
	// (paper: 45,450).
	CountryMoves int
	// BulkTransfers lists (from, to, interval) movements of at least
	// BulkThreshold devices.
	BulkTransfers []BulkTransfer
	BulkThreshold int
	// BulkDeviceMoves is the number of device movements covered by bulk
	// transfers (paper: 343,687 in 1,159 events).
	BulkDeviceMoves int
}

// Movement computes §7.3 over entities spanning at least minSpan.
// bulkThreshold is the minimum devices moving AS→AS in one scan interval to
// call it a block transfer (the paper uses 50 at full Internet scale).
func (t *Tracker) Movement(minSpan time.Duration, bulkThreshold int) MovementReport {
	rep := MovementReport{BulkThreshold: bulkThreshold}
	type edge struct {
		from, to int
		scan     scanstore.ScanID
	}
	edgeCounts := make(map[edge]int)
	for _, e := range t.entities {
		if e.Span(t.ds.Corpus) < minSpan {
			continue
		}
		rep.TrackedDevices++
		steps := t.asTimeline(e)
		if len(steps) < 2 {
			continue
		}
		rep.DevicesChanging++
		rep.TotalTransitions += len(steps) - 1
		if len(steps) == 2 {
			rep.ChangedOnceFrac++ // numerator; normalised below
		}
		countries := false
		for i := 1; i < len(steps); i++ {
			if steps[i].as.Country != steps[i-1].as.Country {
				countries = true
			}
			edgeCounts[edge{from: steps[i-1].as.ASN, to: steps[i].as.ASN, scan: steps[i].scan}]++
		}
		if countries {
			rep.CountryMoves++
		}
	}
	if rep.DevicesChanging > 0 {
		rep.ChangedOnceFrac /= float64(rep.DevicesChanging)
	}
	for e, n := range edgeCounts {
		if n >= bulkThreshold {
			rep.BulkTransfers = append(rep.BulkTransfers, BulkTransfer{
				FromASN: e.from, ToASN: e.to, ScanTo: e.scan, Devices: n,
			})
			rep.BulkDeviceMoves += n
		}
	}
	sort.Slice(rep.BulkTransfers, func(i, j int) bool {
		return rep.BulkTransfers[i].Devices > rep.BulkTransfers[j].Devices
	})
	return rep
}

// ASReassignment is one AS's inferred policy (§7.4).
type ASReassignment struct {
	ASN            int
	Org            string
	TrackedDevices int
	// StaticFrac of devices kept one address across the whole dataset while
	// being observed for at least a year.
	StaticFrac float64
	// PerScanChurnFrac is the mean, over the AS's tracked devices, of the
	// fraction of consecutive-observation pairs where the address changed;
	// 1.0 means every device renumbers between every scan.
	PerScanChurnFrac float64
}

// ReassignmentReport is §7.4 / Figure 11.
type ReassignmentReport struct {
	PerAS []ASReassignment
	// StaticFracCDF is Figure 11: the distribution over ASes of the
	// static-device fraction.
	StaticFracCDF *stats.CDF
	// MostlyStaticASes assign static addresses to at least 90% of their
	// devices (paper: 56.3% of ASes); HighlyDynamicASes renumber >=75% of
	// devices every scan (paper: 15).
	MostlyStaticASes  int
	HighlyDynamicASes int
}

// Reassignment computes §7.4 over entities observed at least minSpan, for
// ASes with at least minDevices tracked devices (paper: 10).
func (t *Tracker) Reassignment(minSpan time.Duration, minDevices int) ReassignmentReport {
	type acc struct {
		as       *netsim.AS
		devices  int
		static   int
		churnSum float64
	}
	perAS := make(map[int]*acc)
	for _, e := range t.entities {
		if e.Span(t.ds.Corpus) < minSpan || len(e.Sightings) < 2 {
			continue
		}
		// Dominant AS over the entity's sightings.
		counts := make(map[int]int)
		var dom *netsim.AS
		var domN int
		for _, sg := range e.Sightings {
			if as := t.asAt(sg); as != nil {
				counts[as.ASN]++
				if counts[as.ASN] > domN {
					domN = counts[as.ASN]
					dom = as
				}
			}
		}
		if dom == nil {
			continue
		}
		// Judge the AS's assignment policy only by the device's sightings
		// inside that AS: a device that later switched ISPs should not make
		// its old ISP look dynamic.
		ips := make(map[netsim.IP]bool)
		changes, pairs := 0, 0
		var prev netsim.IP
		havePrev := false
		for _, sg := range e.Sightings {
			if as := t.asAt(sg); as == nil || as.ASN != dom.ASN {
				continue
			}
			ips[sg.IP] = true
			if havePrev {
				pairs++
				if sg.IP != prev {
					changes++
				}
			}
			prev = sg.IP
			havePrev = true
		}
		a := perAS[dom.ASN]
		if a == nil {
			a = &acc{as: dom}
			perAS[dom.ASN] = a
		}
		a.devices++
		if len(ips) == 1 {
			a.static++
		}
		if pairs > 0 {
			a.churnSum += float64(changes) / float64(pairs)
		}
	}

	rep := ReassignmentReport{}
	for _, a := range perAS {
		if a.devices < minDevices {
			continue
		}
		r := ASReassignment{
			ASN:              a.as.ASN,
			Org:              a.as.Org,
			TrackedDevices:   a.devices,
			StaticFrac:       float64(a.static) / float64(a.devices),
			PerScanChurnFrac: a.churnSum / float64(a.devices),
		}
		rep.PerAS = append(rep.PerAS, r)
		if r.StaticFrac >= 0.9 {
			rep.MostlyStaticASes++
		}
		if r.PerScanChurnFrac >= 0.75 {
			rep.HighlyDynamicASes++
		}
	}
	sort.Slice(rep.PerAS, func(i, j int) bool { return rep.PerAS[i].ASN < rep.PerAS[j].ASN })
	// Derive the CDF input from the ASN-sorted rows, not the map walk, so
	// the samples slice is deterministic (NewCDF re-sorts, but the contract
	// is that nothing order-sensitive leaves a map range unsorted).
	fracs := make([]float64, len(rep.PerAS))
	for i, r := range rep.PerAS {
		fracs[i] = r.StaticFrac
	}
	rep.StaticFracCDF = stats.NewCDF(fracs)
	return rep
}
