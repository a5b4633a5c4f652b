package analysis

import (
	"fmt"

	"securepki/internal/netsim"
	"securepki/internal/scanstore"
	"securepki/internal/stats"
)

// HostDiversityReport is §5.4's IP-level view (Figure 7).
type HostDiversityReport struct {
	// ValidAvgIPs / InvalidAvgIPs: per certificate, the mean number of
	// distinct advertising addresses per scan.
	ValidAvgIPs   *stats.CDF
	InvalidAvgIPs *stats.CDF

	// SingleIPInvalidFrac: invalid certs only ever seen from one address
	// per scan. OverTwoIPsInvalidFrac: ever seen from >2 addresses in one
	// scan (paper: 1.6%, excluded by the §6.2 rule).
	SingleIPInvalidFrac   float64
	OverTwoIPsInvalidFrac float64
	MaxIPsForValidCert    int
}

// HostDiversity computes Figure 7.
func (d *Dataset) HostDiversity() HostDiversityReport {
	var validAvg, invalidAvg []float64
	var invTotal, invSingle, invOverTwo, maxValid int
	d.EachObserved(func(rec *scanstore.CertRecord, invalid bool) {
		avg := d.Index.AvgIPsPerScan(rec.ID)
		max := d.Index.MaxIPsInAnyScan(rec.ID)
		if invalid {
			invalidAvg = append(invalidAvg, avg)
			invTotal++
			if max <= 1 {
				invSingle++
			}
			if max > 2 {
				invOverTwo++
			}
		} else {
			validAvg = append(validAvg, avg)
			if max > maxValid {
				maxValid = max
			}
		}
	})
	rep := HostDiversityReport{
		ValidAvgIPs:        stats.NewCDF(validAvg),
		InvalidAvgIPs:      stats.NewCDF(invalidAvg),
		MaxIPsForValidCert: maxValid,
	}
	if invTotal > 0 {
		rep.SingleIPInvalidFrac = float64(invSingle) / float64(invTotal)
		rep.OverTwoIPsInvalidFrac = float64(invOverTwo) / float64(invTotal)
	}
	return rep
}

// ASDiversityReport is §5.4's AS-level view: Figure 8 and Tables 2–3.
type ASDiversityReport struct {
	// ValidASCounts / InvalidASCounts: per certificate, the number of
	// distinct ASes that ever advertised it (Figure 8's CDFs).
	ValidASCounts   *stats.CDF
	InvalidASCounts *stats.CDF

	// TopASInvalidShare: fraction of invalid certs whose dominant AS is the
	// single most popular one (paper: 18%, Deutsche Telekom).
	TopASInvalidShare float64
	TopASValidShare   float64
	// ASesFor70Invalid / ASesFor70Valid: how many ASes cover 70% of each
	// population (paper: 165 vs 500).
	ASesFor70Invalid int
	ASesFor70Valid   int

	// TypeBreakdown is Table 2: share of certificates per CAIDA AS type.
	ValidByType   map[netsim.ASType]float64
	InvalidByType map[netsim.ASType]float64

	// TopValidASes / TopInvalidASes are Table 3.
	TopValidASes   []stats.RankedItem
	TopInvalidASes []stats.RankedItem
}

// ASDiversity computes Figure 8 and Tables 2–3, once per topN. Each
// certificate is attributed to the AS from which it was most frequently
// advertised.
func (d *Dataset) ASDiversity(topN int) ASDiversityReport {
	return memoOf(d, &d.asDiv, topN).get(func() ASDiversityReport { return d.asDiversity(topN) })
}

func (d *Dataset) asDiversity(topN int) ASDiversityReport {
	validPerAS := stats.NewCounter()
	invalidPerAS := stats.NewCounter()
	validTypes := make(map[netsim.ASType]int)
	invalidTypes := make(map[netsim.ASType]int)
	var validASCounts, invalidASCounts []float64
	var nValid, nInvalid int

	attr := d.dominantASes()
	d.EachObserved(func(rec *scanstore.CertRecord, invalid bool) {
		a := attr[rec.ID]
		if a.dom == nil {
			return
		}
		if invalid {
			nInvalid++
			invalidASCounts = append(invalidASCounts, float64(a.distinct))
			invalidPerAS.Inc(a.dom.Name())
			invalidTypes[a.dom.Type]++
		} else {
			nValid++
			validASCounts = append(validASCounts, float64(a.distinct))
			validPerAS.Inc(a.dom.Name())
			validTypes[a.dom.Type]++
		}
	})

	rep := ASDiversityReport{
		ValidASCounts:   stats.NewCDF(validASCounts),
		InvalidASCounts: stats.NewCDF(invalidASCounts),
		TopValidASes:    validPerAS.Top(topN),
		TopInvalidASes:  invalidPerAS.Top(topN),
		ValidByType:     make(map[netsim.ASType]float64),
		InvalidByType:   make(map[netsim.ASType]float64),
	}
	if top := invalidPerAS.Top(1); len(top) == 1 && nInvalid > 0 {
		rep.TopASInvalidShare = float64(top[0].Count) / float64(nInvalid)
	}
	if top := validPerAS.Top(1); len(top) == 1 && nValid > 0 {
		rep.TopASValidShare = float64(top[0].Count) / float64(nValid)
	}
	rep.ASesFor70Invalid = stats.ItemsForCoverage(stats.CoverageCurve(invalidPerAS.Values()), 0.7)
	rep.ASesFor70Valid = stats.ItemsForCoverage(stats.CoverageCurve(validPerAS.Values()), 0.7)
	for typ, n := range validTypes {
		rep.ValidByType[typ] = float64(n) / float64(nValid)
	}
	for typ, n := range invalidTypes {
		rep.InvalidByType[typ] = float64(n) / float64(nInvalid)
	}
	return rep
}

// asAttribution is one certificate's AS view: the AS that advertised it
// most often, nil when no sighting maps to one, and how many distinct ASes
// advertised it.
type asAttribution struct {
	dom      *netsim.AS
	distinct int
}

// dominantASes attributes each certificate, indexed by CertID, to the AS
// that advertised it most often, once per Dataset; ASDiversity and LintCuts
// share it. Of two ASes with the same count, the one that reached it first
// in sighting order wins.
func (d *Dataset) dominantASes() []asAttribution {
	return d.dominant.get(func() []asAttribution {
		out := make([]asAttribution, d.Corpus.NumCerts())
		type asCount struct{ asn, n int }
		var seen []asCount // this certificate's ASes, reused across certificates
		for id := range out {
			seen = seen[:0]
			a := &out[id]
			domCount := 0
			for _, sg := range d.Index.Sightings(scanstore.CertID(id)) {
				as := d.Internet.Lookup(sg.IP, d.Corpus.Scan(sg.Scan).Time)
				if as == nil {
					continue
				}
				k := 0
				for k < len(seen) && seen[k].asn != as.ASN {
					k++
				}
				if k == len(seen) {
					seen = append(seen, asCount{asn: as.ASN})
				}
				seen[k].n++
				if seen[k].n > domCount {
					domCount, a.dom = seen[k].n, as
				}
			}
			a.distinct = len(seen)
		}
		return out
	})
}

// FormatASTypeTable renders Table 2.
func FormatASTypeTable(rep ASDiversityReport) string {
	out := "AS Type          % of Valid  % of Invalid\n"
	for _, typ := range []netsim.ASType{netsim.TransitAccess, netsim.Content, netsim.Enterprise, netsim.UnknownType} {
		out += fmt.Sprintf("%-16s %9.1f%% %12.1f%%\n", typ, 100*rep.ValidByType[typ], 100*rep.InvalidByType[typ])
	}
	return out
}
