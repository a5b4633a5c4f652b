package analysis

import (
	"sort"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/scanstore"
)

// CoScanDays returns the days on which both operators ran a scan (the paper
// had eight such days).
func (d *Dataset) CoScanDays() []time.Time {
	byDay := make(map[time.Time]map[scanstore.Operator]bool)
	for _, s := range d.Corpus.Scans() {
		day := s.Day()
		if byDay[day] == nil {
			byDay[day] = make(map[scanstore.Operator]bool)
		}
		byDay[day][s.Operator] = true
	}
	var out []time.Time
	for day, ops := range byDay {
		if ops[scanstore.UMich] && ops[scanstore.Rapid7] {
			out = append(out, day)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// scansOnDay returns the operator's scans falling on the given day.
func (d *Dataset) scansOnDay(day time.Time, op scanstore.Operator) []*scanstore.Scan {
	var out []*scanstore.Scan
	for _, s := range d.Corpus.Scans() {
		if s.Operator == op && s.Day().Equal(day) {
			out = append(out, s)
		}
	}
	return out
}

func hostSet(scans []*scanstore.Scan) map[netsim.IP]bool {
	set := make(map[netsim.IP]bool)
	for _, s := range scans {
		for _, o := range s.Obs {
			set[o.IP] = true
		}
	}
	return set
}

// Slash8Discrepancy is one bar group of Figure 1: within one /8, the fraction
// of responding hosts seen only by each operator.
type Slash8Discrepancy struct {
	Slash8         int
	UMichOnlyFrac  float64 // unique to UMich / all hosts in the /8
	Rapid7OnlyFrac float64
	HostsInSlash8  int
}

// DiscrepancyReport is Figure 1 plus its headline number (Rapid7 scans are
// ~20% smaller).
type DiscrepancyReport struct {
	Day         time.Time
	UMichHosts  int
	Rapid7Hosts int
	PerSlash8   []Slash8Discrepancy
	// UMichOnly / Rapid7Only are total host counts unique to each scan.
	UMichOnly  int
	Rapid7Only int
}

// Rapid7Deficit returns how much smaller the Rapid7 scan was.
func (r DiscrepancyReport) Rapid7Deficit() float64 {
	if r.UMichHosts == 0 {
		return 0
	}
	return 1 - float64(r.Rapid7Hosts)/float64(r.UMichHosts)
}

// ScanDiscrepancy reproduces Figure 1 for one co-scan day: per /8, the
// fraction of hosts unique to each operator's scan.
func (d *Dataset) ScanDiscrepancy(day time.Time) DiscrepancyReport {
	um := hostSet(d.scansOnDay(day, scanstore.UMich))
	r7 := hostSet(d.scansOnDay(day, scanstore.Rapid7))

	rep := DiscrepancyReport{Day: day, UMichHosts: len(um), Rapid7Hosts: len(r7)}
	type counts struct{ umOnly, r7Only, total int }
	per := make(map[int]*counts)
	bump := func(ip netsim.IP) *counts {
		c, ok := per[ip.Slash8()]
		if !ok {
			c = &counts{}
			per[ip.Slash8()] = c
		}
		return c
	}
	for ip := range um {
		c := bump(ip)
		c.total++
		if !r7[ip] {
			c.umOnly++
			rep.UMichOnly++
		}
	}
	for ip := range r7 {
		c := bump(ip)
		if !um[ip] {
			c.total++
			c.r7Only++
			rep.Rapid7Only++
		}
	}
	for s8, c := range per {
		if c.total == 0 {
			continue
		}
		rep.PerSlash8 = append(rep.PerSlash8, Slash8Discrepancy{
			Slash8:         s8,
			UMichOnlyFrac:  float64(c.umOnly) / float64(c.total),
			Rapid7OnlyFrac: float64(c.r7Only) / float64(c.total),
			HostsInSlash8:  c.total,
		})
	}
	sort.Slice(rep.PerSlash8, func(i, j int) bool { return rep.PerSlash8[i].Slash8 < rep.PerSlash8[j].Slash8 })
	return rep
}

// BlacklistReport quantifies §4.1's finding: prefixes that are consistently
// missing from exactly one operator explain most of the host discrepancy.
type BlacklistReport struct {
	CoScanDays int
	// PrefixesMissingFromUMich were present in every Rapid7 co-scan but
	// never in UMich's (paper: 1,906), and vice versa (paper: 11,624).
	PrefixesMissingFromUMich  int
	PrefixesMissingFromRapid7 int
	// ExplainedUMichOnly is the fraction of UMich-only host observations
	// that fall in prefixes Rapid7 never covered (paper: 74.0% the other
	// way; both directions reported).
	ExplainedUMichOnly  float64
	ExplainedRapid7Only float64
}

// BlacklistAttribution reproduces the §4.1 blacklisting analysis over all
// co-scan days.
func (d *Dataset) BlacklistAttribution() BlacklistReport {
	days := d.CoScanDays()
	rep := BlacklistReport{CoScanDays: len(days)}
	if len(days) == 0 {
		return rep
	}

	// Track per-prefix presence per operator across co-scan days.
	type presence struct{ um, r7 int }
	byPrefix := make(map[netsim.Prefix]*presence)
	perDayUM := make([]map[netsim.IP]bool, len(days))
	perDayR7 := make([]map[netsim.IP]bool, len(days))
	for i, day := range days {
		perDayUM[i] = hostSet(d.scansOnDay(day, scanstore.UMich))
		perDayR7[i] = hostSet(d.scansOnDay(day, scanstore.Rapid7))
		seenUM := make(map[netsim.Prefix]bool)
		seenR7 := make(map[netsim.Prefix]bool)
		for ip := range perDayUM[i] {
			if p, ok := d.Internet.PrefixOf(ip); ok {
				seenUM[p] = true
			}
		}
		for ip := range perDayR7[i] {
			if p, ok := d.Internet.PrefixOf(ip); ok {
				seenR7[p] = true
			}
		}
		for p := range seenUM {
			if byPrefix[p] == nil {
				byPrefix[p] = &presence{}
			}
			byPrefix[p].um++
		}
		for p := range seenR7 {
			if byPrefix[p] == nil {
				byPrefix[p] = &presence{}
			}
			byPrefix[p].r7++
		}
	}

	missingUM := make(map[netsim.Prefix]bool) // never in UMich, always in Rapid7
	missingR7 := make(map[netsim.Prefix]bool)
	for p, pres := range byPrefix {
		if pres.um == 0 && pres.r7 == len(days) {
			missingUM[p] = true
		}
		if pres.r7 == 0 && pres.um == len(days) {
			missingR7[p] = true
		}
	}
	rep.PrefixesMissingFromUMich = len(missingUM)
	rep.PrefixesMissingFromRapid7 = len(missingR7)

	// Attribute per-day unique hosts to the always-missing prefixes.
	var umOnly, umExplained, r7Only, r7Explained int
	for i := range days {
		for ip := range perDayUM[i] {
			if perDayR7[i][ip] {
				continue
			}
			umOnly++
			if p, ok := d.Internet.PrefixOf(ip); ok && missingR7[p] {
				umExplained++
			}
		}
		for ip := range perDayR7[i] {
			if perDayUM[i][ip] {
				continue
			}
			r7Only++
			if p, ok := d.Internet.PrefixOf(ip); ok && missingUM[p] {
				r7Explained++
			}
		}
	}
	if umOnly > 0 {
		rep.ExplainedUMichOnly = float64(umExplained) / float64(umOnly)
	}
	if r7Only > 0 {
		rep.ExplainedRapid7Only = float64(r7Explained) / float64(r7Only)
	}
	return rep
}
