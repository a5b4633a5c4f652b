// Package analysis implements every §4–§5 measurement of the paper over a
// scan corpus: dataset discrepancy (Figure 1, §4.1), validation breakdown
// (§4.2, Figure 2), certificate longevity (Figures 3–5), key diversity
// (Figure 6), issuer diversity (Table 1, §5.3), host and AS diversity
// (Figures 7–8, Tables 2–3) and device-type classification (Table 4).
//
// Each analysis returns a typed report with the exact quantities the paper
// states, plus the curve/series data its figure plots; reports know how to
// render themselves for terminal output.
package analysis

import (
	"time"

	"securepki/internal/netsim"
	"securepki/internal/scanstore"
	"securepki/internal/truststore"
)

// Dataset bundles the corpus (already validated), its index, and the Internet
// model used to map addresses to prefixes and ASes.
type Dataset struct {
	Corpus   *scanstore.Corpus
	Index    *scanstore.Index
	Internet *netsim.Internet
}

// NewDataset builds the per-certificate index and wraps the inputs. The
// corpus must already have been validated (Corpus.Validate), or every
// certificate will count as valid.
func NewDataset(corpus *scanstore.Corpus, inet *netsim.Internet) *Dataset {
	return NewDatasetWorkers(corpus, inet, 0)
}

// NewDatasetWorkers is NewDataset with an explicit worker count for the
// index build (<= 0 means GOMAXPROCS); the index is identical at any count.
func NewDatasetWorkers(corpus *scanstore.Corpus, inet *netsim.Internet, workers int) *Dataset {
	return &Dataset{Corpus: corpus, Index: corpus.BuildIndexWorkers(workers), Internet: inet}
}

// Invalid reports whether the certificate with the given ID is invalid.
func (d *Dataset) Invalid(id scanstore.CertID) bool {
	return d.Corpus.Cert(id).Status.Invalid()
}

// EachObserved calls fn for every certificate that was observed at least
// once, passing whether it is invalid.
func (d *Dataset) EachObserved(fn func(rec *scanstore.CertRecord, invalid bool)) {
	for _, rec := range d.Corpus.Certs() {
		if len(d.Index.Sightings(rec.ID)) == 0 {
			continue
		}
		fn(rec, rec.Status.Invalid())
	}
}

// ASOf maps an observation to its AS at the scan's date.
func (d *Dataset) ASOf(ip netsim.IP, at time.Time) *netsim.AS {
	return d.Internet.Lookup(ip, at)
}

// ValidationBreakdown is the §4.2 headline table.
type ValidationBreakdown struct {
	Total  int
	Counts map[truststore.Status]int
	// InvalidFraction is invalid/total over the whole corpus (paper: 87.9%).
	InvalidFraction float64
	// SelfSignedOfInvalid / UntrustedOfInvalid split the invalid population
	// (paper: 88.0% / 11.99%).
	SelfSignedOfInvalid float64
	UntrustedOfInvalid  float64
}

// Validation computes the §4.2 breakdown over all observed certificates.
func (d *Dataset) Validation() ValidationBreakdown {
	vb := ValidationBreakdown{Counts: make(map[truststore.Status]int)}
	d.EachObserved(func(rec *scanstore.CertRecord, invalid bool) {
		vb.Total++
		vb.Counts[rec.Status]++
	})
	invalid := vb.Total - vb.Counts[truststore.Valid]
	if vb.Total > 0 {
		vb.InvalidFraction = float64(invalid) / float64(vb.Total)
	}
	if invalid > 0 {
		vb.SelfSignedOfInvalid = float64(vb.Counts[truststore.SelfSigned]) / float64(invalid)
		vb.UntrustedOfInvalid = float64(vb.Counts[truststore.UntrustedIssuer]) / float64(invalid)
	}
	return vb
}

// ScanCount is one point of Figure 2: unique valid and invalid certificates
// in a single scan.
type ScanCount struct {
	Scan     scanstore.ScanID
	Operator scanstore.Operator
	Time     time.Time
	Valid    int
	Invalid  int
}

// InvalidFraction returns the scan's invalid share.
func (s ScanCount) InvalidFraction() float64 {
	if s.Valid+s.Invalid == 0 {
		return 0
	}
	return float64(s.Invalid) / float64(s.Valid+s.Invalid)
}

// CertCounts computes Figure 2's series plus the per-scan invalid-fraction
// summary of §4.2 (paper: 59.6%–73.7%, mean 65.0%).
func (d *Dataset) CertCounts() []ScanCount {
	out := make([]ScanCount, 0, d.Corpus.NumScans())
	for _, scan := range d.Corpus.Scans() {
		sc := ScanCount{Scan: scan.ID, Operator: scan.Operator, Time: scan.Time}
		seen := make(map[scanstore.CertID]bool)
		for _, obs := range scan.Obs {
			if seen[obs.Cert] {
				continue
			}
			seen[obs.Cert] = true
			if d.Invalid(obs.Cert) {
				sc.Invalid++
			} else {
				sc.Valid++
			}
		}
		out = append(out, sc)
	}
	return out
}

// MeanInvalidFraction averages the per-scan invalid shares.
func MeanInvalidFraction(counts []ScanCount) float64 {
	if len(counts) == 0 {
		return 0
	}
	var sum float64
	for _, c := range counts {
		sum += c.InvalidFraction()
	}
	return sum / float64(len(counts))
}
