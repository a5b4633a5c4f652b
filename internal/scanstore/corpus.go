// Package scanstore holds the measurement corpus: every distinct certificate
// observed (deduplicated by SHA-256 fingerprint, as the paper counts "unique
// certificates"), the series of scans from both operators, and the
// per-scan (certificate, IP) observations. It also provides the derived
// indexes the analyses need — per-certificate observation lists, lifetimes,
// and per-scan IP sets. internal/snapshot persists a corpus on disk, so
// generated corpora can be written by cmd/scangen and consumed by the
// analysis binaries.
package scanstore

import (
	"fmt"
	"slices"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/parallel"
	"securepki/internal/truststore"
	"securepki/internal/x509lite"
)

// CertID indexes the deduplicated certificate table.
type CertID int32

// ScanID indexes the scan series in chronological order of insertion.
type ScanID int32

// Operator identifies which scan campaign produced a snapshot.
type Operator int

// The two scan operators of §4.1.
const (
	UMich Operator = iota
	Rapid7
)

// String returns the operator label used in reports.
func (o Operator) String() string {
	switch o {
	case UMich:
		return "Univ. Michigan"
	case Rapid7:
		return "Rapid7"
	default:
		return "unknown"
	}
}

// CertRecord is one deduplicated certificate plus its validation outcome.
type CertRecord struct {
	ID     CertID
	Cert   *x509lite.Certificate
	Status truststore.Status
}

// Observation is one (certificate, IP) sighting within a scan.
type Observation struct {
	Cert CertID
	IP   netsim.IP
}

// Scan is one full-IPv4 snapshot.
type Scan struct {
	ID       ScanID
	Operator Operator
	Time     time.Time
	Obs      []Observation
}

// Day returns the scan's date truncated to UTC midnight.
func (s *Scan) Day() time.Time {
	return time.Date(s.Time.Year(), s.Time.Month(), s.Time.Day(), 0, 0, 0, 0, time.UTC)
}

// Corpus accumulates scans and certificates. Not safe for concurrent
// mutation; read access after building is safe.
type Corpus struct {
	certs []*CertRecord
	byFP  map[x509lite.Fingerprint]CertID
	scans []*Scan
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{byFP: make(map[x509lite.Fingerprint]CertID)}
}

// Intern deduplicates a parsed certificate, returning its stable ID.
func (c *Corpus) Intern(cert *x509lite.Certificate) CertID {
	fp := cert.Fingerprint()
	if id, ok := c.byFP[fp]; ok {
		return id
	}
	id := CertID(len(c.certs))
	c.certs = append(c.certs, &CertRecord{ID: id, Cert: cert})
	c.byFP[fp] = id
	return id
}

// Lookup returns the ID for a fingerprint if the certificate is interned.
func (c *Corpus) Lookup(fp x509lite.Fingerprint) (CertID, bool) {
	id, ok := c.byFP[fp]
	return id, ok
}

// AddScan appends a scan snapshot and returns its ID. Scans must be added in
// chronological order; out-of-order insertion is an error.
func (c *Corpus) AddScan(op Operator, at time.Time, obs []Observation) (ScanID, error) {
	if len(c.scans) > 0 && at.Before(c.scans[len(c.scans)-1].Time) {
		return 0, fmt.Errorf("scanstore: scan at %v inserted after %v", at, c.scans[len(c.scans)-1].Time)
	}
	id := ScanID(len(c.scans))
	c.scans = append(c.scans, &Scan{ID: id, Operator: op, Time: at, Obs: obs})
	return id, nil
}

// NumCerts returns the number of distinct certificates.
func (c *Corpus) NumCerts() int { return len(c.certs) }

// NumScans returns the number of scans.
func (c *Corpus) NumScans() int { return len(c.scans) }

// NumObservations returns the total (certificate, IP) sightings across all
// scans — the quantity the sighting index is built over.
func (c *Corpus) NumObservations() int {
	total := 0
	for _, s := range c.scans {
		total += len(s.Obs)
	}
	return total
}

// Cert returns the record for an ID.
func (c *Corpus) Cert(id CertID) *CertRecord { return c.certs[id] }

// Certs returns the certificate table in ID order.
func (c *Corpus) Certs() []*CertRecord { return c.certs }

// Scan returns one scan by ID.
func (c *Corpus) Scan(id ScanID) *Scan { return c.scans[id] }

// Scans returns all scans in chronological order.
func (c *Corpus) Scans() []*Scan { return c.scans }

// ValidateWorkers classifies every interned certificate against the store,
// pooling every CA-flagged certificate as an intermediate first so that
// transvalid chains complete (§4.2). It returns counts per status.
// Validation fans out across workers (<= 0 means GOMAXPROCS). Calling it
// again re-classifies without growing the store (AddIntermediate is
// idempotent). Results are identical at any worker count: each certificate's
// Status is written only by the worker that verifies it, the status counts
// are tallied serially after the barrier, and the store's chain cache fills
// with values that do not depend on scheduling.
func (c *Corpus) ValidateWorkers(store *truststore.Store, workers int) map[truststore.Status]int {
	// Pool serially: the store is not safe for concurrent mutation, and the
	// pool must be complete before any chain is memoized.
	for _, rec := range c.certs {
		if rec.Cert.IsCA {
			store.AddIntermediate(rec.Cert)
		}
	}
	parallel.ForEach(workers, len(c.certs), func(i int) {
		rec := c.certs[i]
		rec.Status = store.Verify(rec.Cert)
	})
	counts := make(map[truststore.Status]int)
	for _, rec := range c.certs {
		counts[rec.Status]++
	}
	return counts
}

// Sighting is one appearance of a certificate: which scan and which IP.
type Sighting struct {
	Scan ScanID
	IP   netsim.IP
}

// Index is the per-certificate view of the corpus the linking and lifetime
// analyses consume. Build it once with BuildIndexWorkers after all scans are
// added.
//
// It holds three flat arrays, each sized exactly, with an offset array over
// each: every sighting, grouped by certificate and ordered by scan within
// one; the runs, one per (certificate, scan) the certificate appeared in,
// grouped by certificate and ascending by scan; and each run's distinct
// advertising IPs, sorted ascending, in run order. A certificate's sightings
// are sightings[sightingOff[id]:sightingOff[id+1]], its runs
// runScans[runOff[id]:runOff[id+1]], and run r's IPs ips[ipOff[r]:ipOff[r+1]].
// Accessors return capacity-capped sub-slices of these arrays, so an append
// to one reallocates instead of overwriting its neighbour; an empty result
// is nil. Callers must not modify the elements.
type Index struct {
	corpus      *Corpus
	sightings   []Sighting
	sightingOff []int // by CertID, len NumCerts+1
	runScans    []ScanID
	runOff      []int // by CertID, len NumCerts+1
	ips         []netsim.IP
	ipOff       []int // by run, len(runScans)+1
}

// BuildIndexWorkers inverts the scan → observation mapping into
// per-certificate sighting lists and precomputes the per-scan views
// (distinct scans, distinct IPs per scan) that the §6 loops hammer, across
// workers (<= 0 means GOMAXPROCS). The inversion is a counting sort: a first
// pass counts each certificate's sightings, a prefix sum turns the counts
// into offsets, and a second pass over the scans in order fills each
// certificate's range, so its sightings arrive in scan order. The runs and
// their IPs are then derived in two fan-outs around a serial prefix sum: the
// first sorts and deduplicates each run's IPs in place in a scratch copy of
// the sighting IPs and counts every certificate's runs and distinct IPs; the
// second copies them into arrays of exactly the summed sizes. Each
// certificate writes only its own ranges, so the index is identical at any
// worker count.
func (c *Corpus) BuildIndexWorkers(workers int) *Index {
	n := len(c.certs)
	total := c.NumObservations()
	idx := &Index{corpus: c, sightingOff: make([]int, n+1), runOff: make([]int, n+1)}
	for _, scan := range c.scans {
		for _, obs := range scan.Obs {
			idx.sightingOff[obs.Cert+1]++
		}
	}
	for i := range n {
		idx.sightingOff[i+1] += idx.sightingOff[i]
	}
	next := slices.Clone(idx.sightingOff[:n]) // fill cursors
	idx.sightings = make([]Sighting, total)
	for _, scan := range c.scans {
		for _, obs := range scan.Obs {
			idx.sightings[next[obs.Cert]] = Sighting{Scan: scan.ID, IP: obs.IP}
			next[obs.Cert]++
		}
	}

	// distinct[s] is, for the sighting s that opens a run, how many distinct
	// IPs the run has; they sit sorted at scratch[s:s+distinct[s]].
	scratch := make([]netsim.IP, total)
	distinct := make([]int, total)
	certIPs := make([]int, n+1) // distinct IPs per certificate, then offsets
	parallel.ForEach(workers, n, func(id int) {
		lo, hi := idx.sightingOff[id], idx.sightingOff[id+1]
		var runs, ips int
		for a := lo; a < hi; {
			b := a
			for b < hi && idx.sightings[b].Scan == idx.sightings[a].Scan {
				scratch[b] = idx.sightings[b].IP
				b++
			}
			run := scratch[a:b]
			slices.Sort(run)
			k := len(slices.Compact(run))
			distinct[a] = k
			runs++
			ips += k
			a = b
		}
		idx.runOff[id+1] = runs
		certIPs[id+1] = ips
	})
	for i := range n {
		idx.runOff[i+1] += idx.runOff[i]
		certIPs[i+1] += certIPs[i]
	}
	idx.runScans = make([]ScanID, idx.runOff[n])
	idx.ipOff = make([]int, idx.runOff[n]+1)
	idx.ips = make([]netsim.IP, certIPs[n])
	idx.ipOff[idx.runOff[n]] = certIPs[n]
	parallel.ForEach(workers, n, func(id int) {
		lo, hi := idx.sightingOff[id], idx.sightingOff[id+1]
		r, at := idx.runOff[id], certIPs[id]
		for a := lo; a < hi; r++ {
			k := distinct[a]
			idx.runScans[r] = idx.sightings[a].Scan
			idx.ipOff[r] = at
			at += copy(idx.ips[at:], scratch[a:a+k])
			for a < hi && idx.sightings[a].Scan == idx.runScans[r] {
				a++
			}
		}
	})
	return idx
}

// capped returns s[lo:hi] with its capacity cut at hi, or nil when empty.
func capped[T any](s []T, lo, hi int) []T {
	if lo == hi {
		return nil
	}
	return s[lo:hi:hi]
}

// Sightings returns every appearance of the certificate, in scan order.
func (i *Index) Sightings(id CertID) []Sighting {
	return capped(i.sightings, i.sightingOff[id], i.sightingOff[id+1])
}

// ScansSeen returns the distinct scan IDs in which the certificate appeared,
// ascending.
func (i *Index) ScansSeen(id CertID) []ScanID {
	return capped(i.runScans, i.runOff[id], i.runOff[id+1])
}

// IPsInScan returns the distinct IPs that advertised the certificate in one
// scan — the quantity the §6.2 scan-duplicate rule thresholds — sorted
// ascending.
func (i *Index) IPsInScan(id CertID, scan ScanID) []netsim.IP {
	for r := i.runOff[id]; r < i.runOff[id+1]; r++ {
		if i.runScans[r] == scan {
			return capped(i.ips, i.ipOff[r], i.ipOff[r+1])
		}
		if i.runScans[r] > scan {
			break // runs are ascending
		}
	}
	return nil
}

// FirstSeen returns the time of the first scan that observed the certificate
// and false if it was never observed.
func (i *Index) FirstSeen(id CertID) (time.Time, bool) {
	s := i.Sightings(id)
	if len(s) == 0 {
		return time.Time{}, false
	}
	return i.corpus.Scan(s[0].Scan).Time, true
}

// LastSeen returns the time of the last scan that observed the certificate.
func (i *Index) LastSeen(id CertID) (time.Time, bool) {
	s := i.Sightings(id)
	if len(s) == 0 {
		return time.Time{}, false
	}
	return i.corpus.Scan(s[len(s)-1].Scan).Time, true
}

// LifetimeDays computes the paper's (inclusive) lifetime: one day for a
// single sighting, last−first+1 days otherwise (§5.1's "two scans a week
// apart → 8 days"). The second return is false if the cert was never seen.
func (i *Index) LifetimeDays(id CertID) (int, bool) {
	first, ok := i.FirstSeen(id)
	if !ok {
		return 0, false
	}
	last, _ := i.LastSeen(id)
	days := int(last.Sub(first).Hours()/24) + 1
	return days, true
}

// AvgIPsPerScan returns the certificate's mean count of distinct advertising
// IPs over the scans in which it appeared (Figure 7's x-axis).
func (i *Index) AvgIPsPerScan(id CertID) float64 {
	lo, hi := i.runOff[id], i.runOff[id+1]
	if lo == hi {
		return 0
	}
	return float64(i.ipOff[hi]-i.ipOff[lo]) / float64(hi-lo)
}

// MaxIPsInAnyScan returns the maximum distinct advertising IPs in any single
// scan, the input to the §6.2 uniqueness rule.
func (i *Index) MaxIPsInAnyScan(id CertID) int {
	most := 0
	for r := i.runOff[id]; r < i.runOff[id+1]; r++ {
		most = max(most, i.ipOff[r+1]-i.ipOff[r])
	}
	return most
}
