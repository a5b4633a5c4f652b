package linking

import (
	"securepki/internal/scanner"
	"securepki/internal/scanstore"
)

// The paper could only evaluate linking with IP//24/AS-consistency proxies
// ("we lack a ground truth", §8). The simulation knows which device served
// every certificate, so this file provides the direct evaluation the paper
// calls for as future work.

// PrecisionReport scores a linking result against simulation ground truth.
type PrecisionReport struct {
	// GroupsEvaluated counts groups whose members all have known sole
	// hosts; Pure of them contain certificates from exactly one device.
	GroupsEvaluated int
	PureGroups      int
	// CertPrecision is the fraction of linked certificates that sit in a
	// pure group.
	CertPrecision float64
	// PairRecall: of all (cert, cert) pairs served by the same device among
	// eligible certificates, the fraction ending up in the same group.
	PairRecall float64
	// PerFeaturePurity breaks group purity down by linking feature.
	PerFeaturePurity map[Feature]float64
}

// GroupPurity returns PureGroups/GroupsEvaluated.
func (p PrecisionReport) GroupPurity() float64 {
	if p.GroupsEvaluated == 0 {
		return 0
	}
	return float64(p.PureGroups) / float64(p.GroupsEvaluated)
}

// EvaluateTruth scores a linking result against the scanner's ground truth.
func (l *Linker) EvaluateTruth(res Result, truth *scanner.Truth) PrecisionReport {
	rep := PrecisionReport{PerFeaturePurity: make(map[Feature]float64)}

	type featCount struct{ pure, total int }
	perFeature := make(map[Feature]*featCount)
	var pureCerts, linkedCertsKnown int
	groupOf := make(map[scanstore.CertID]int)
	for gi, g := range res.Groups {
		fc := perFeature[g.Feature]
		if fc == nil {
			fc = &featCount{}
			perFeature[g.Feature] = fc
		}
		hosts := make(map[int]bool)
		known := true
		for _, id := range g.Certs {
			groupOf[id] = gi + 1
			h, ok := truth.SoleHost(id)
			if !ok {
				known = false
				break
			}
			hosts[h] = true
		}
		if !known {
			continue
		}
		rep.GroupsEvaluated++
		fc.total++
		if len(hosts) == 1 {
			rep.PureGroups++
			fc.pure++
			pureCerts += len(g.Certs)
		}
		linkedCertsKnown += len(g.Certs)
	}
	if linkedCertsKnown > 0 {
		rep.CertPrecision = float64(pureCerts) / float64(linkedCertsKnown)
	}
	for f, fc := range perFeature {
		if fc.total > 0 {
			rep.PerFeaturePurity[f] = float64(fc.pure) / float64(fc.total)
		}
	}

	// Pair recall over same-device eligible certificates.
	certsByHost := make(map[int][]scanstore.CertID)
	for i := range l.eligible {
		id := l.eligible[i].id
		if h, ok := truth.SoleHost(id); ok {
			certsByHost[h] = append(certsByHost[h], id)
		}
	}
	var pairs, linkedPairs int
	for _, certs := range certsByHost {
		for i := 0; i < len(certs); i++ {
			for j := i + 1; j < len(certs); j++ {
				pairs++
				gi, gj := groupOf[certs[i]], groupOf[certs[j]]
				if gi != 0 && gi == gj {
					linkedPairs++
				}
			}
		}
	}
	if pairs > 0 {
		rep.PairRecall = float64(linkedPairs) / float64(pairs)
	}
	return rep
}
