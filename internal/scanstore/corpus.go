// Package scanstore holds the measurement corpus: every distinct certificate
// observed (deduplicated by SHA-256 fingerprint, as the paper counts "unique
// certificates"), the series of scans from both operators, and the
// per-scan (certificate, IP) observations. It also provides the derived
// indexes the analyses need — per-certificate observation lists, lifetimes,
// and per-scan IP sets — plus a gzip/gob serialisation so generated corpora
// can be written by cmd/scangen and consumed by the analysis binaries.
package scanstore

import (
	"fmt"
	"sort"
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

// Validate classifies every interned certificate against the store,
// pooling every CA-flagged certificate as an intermediate first so that
// transvalid chains complete (§4.2). It returns counts per status.
// Validation fans out across GOMAXPROCS workers; use ValidateWorkers to pin
// the worker count. Calling it again re-classifies without growing the store
// (AddIntermediate is idempotent).
func (c *Corpus) Validate(store *truststore.Store) map[truststore.Status]int {
	return c.ValidateWorkers(store, 0)
}

// ValidateWorkers is Validate with an explicit worker count (<= 0 means
// GOMAXPROCS). Results are identical at any worker count: each worker owns a
// contiguous slice of the certificate table, per-worker status counts are
// merged after the barrier, and the store's chain cache fills with values
// that do not depend on scheduling.
func (c *Corpus) ValidateWorkers(store *truststore.Store, workers int) map[truststore.Status]int {
	// Pool serially: the store is not safe for concurrent mutation, and the
	// pool must be complete before any chain is memoized.
	for _, rec := range c.certs {
		if rec.Cert.IsCA {
			store.AddIntermediate(rec.Cert)
		}
	}
	n := len(c.certs)
	counts := parallel.NewCounter[truststore.Status](parallel.NumShards(workers, n))
	parallel.Do(workers, n, func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			rec := c.certs[i]
			rec.Status = store.Verify(rec.Cert).Status
			counts.Add(shard, rec.Status, 1)
		}
	})
	return counts.Total()
}

// Sighting is one appearance of a certificate: which scan and which IP.
type Sighting struct {
	Scan ScanID
	IP   netsim.IP
}

// scanIPs is one certificate's distinct advertising IPs within one scan,
// sorted ascending — precomputed so the linking loops stop re-deduplicating
// and re-sorting on every call.
type scanIPs struct {
	Scan ScanID
	IPs  []netsim.IP
}

// Index is the per-certificate view of the corpus the linking and lifetime
// analyses consume. Build it once with BuildIndex after all scans are added.
// All accessors return precomputed slices; callers must not modify them.
type Index struct {
	corpus    *Corpus
	sightings [][]Sighting // by CertID, ordered by scan
	scansSeen [][]ScanID   // by CertID: distinct scans, ascending
	perScan   [][]scanIPs  // by CertID: distinct sorted IPs per scan, by scan
}

// BuildIndex inverts the scan → observation mapping into per-certificate
// sighting lists and precomputes the per-scan views (distinct scans, distinct
// IPs per scan) that the §6 loops hammer. The precompute fans out across
// GOMAXPROCS workers; use BuildIndexWorkers to pin the count.
func (c *Corpus) BuildIndex() *Index {
	return c.BuildIndexWorkers(0)
}

// BuildIndexWorkers is BuildIndex with an explicit worker count (<= 0 means
// GOMAXPROCS). The inversion is a counting sort into one backing array: a
// first pass counts each certificate's sightings, a prefix sum turns the
// counts into offsets, and a second pass over the scans in order fills each
// certificate's range, so its sightings arrive in scan order. Each range is
// capacity-capped, so an append to one certificate's sightings reallocates
// instead of overwriting the next certificate's; a never-observed
// certificate keeps nil sightings.
func (c *Corpus) BuildIndexWorkers(workers int) *Index {
	idx := &Index{corpus: c, sightings: make([][]Sighting, len(c.certs))}
	start := make([]int, len(c.certs)) // sighting counts, then first offsets
	for _, scan := range c.scans {
		for _, obs := range scan.Obs {
			start[obs.Cert]++
		}
	}
	total := 0
	for i, n := range start {
		start[i] = total
		total += n
	}
	next := append([]int(nil), start...) // fill cursors
	backing := make([]Sighting, total)
	for _, scan := range c.scans {
		for _, obs := range scan.Obs {
			backing[next[obs.Cert]] = Sighting{Scan: scan.ID, IP: obs.IP}
			next[obs.Cert]++
		}
	}
	for i, lo := range start {
		if hi := next[i]; hi > lo {
			idx.sightings[i] = backing[lo:hi:hi]
		}
	}
	idx.precompute(workers)
	return idx
}

// precompute derives the per-certificate scan lists and per-scan IP sets from
// the sighting lists. Sightings arrive grouped by scan (scans are inverted in
// order), so each certificate's list splits into contiguous runs.
func (i *Index) precompute(workers int) {
	n := len(i.sightings)
	i.scansSeen = make([][]ScanID, n)
	i.perScan = make([][]scanIPs, n)
	parallel.ForEach(workers, n, func(id int) {
		s := i.sightings[id]
		if len(s) == 0 {
			return
		}
		var scans []ScanID
		var runs []scanIPs
		for lo := 0; lo < len(s); {
			hi := lo
			for hi < len(s) && s[hi].Scan == s[lo].Scan {
				hi++
			}
			ips := make([]netsim.IP, 0, hi-lo)
			for _, sg := range s[lo:hi] {
				dup := false
				for _, ip := range ips {
					if ip == sg.IP {
						dup = true
						break
					}
				}
				if !dup {
					ips = append(ips, sg.IP)
				}
			}
			sort.Slice(ips, func(a, b int) bool { return ips[a] < ips[b] })
			scans = append(scans, s[lo].Scan)
			runs = append(runs, scanIPs{Scan: s[lo].Scan, IPs: ips})
			lo = hi
		}
		i.scansSeen[id] = scans
		i.perScan[id] = runs
	})
}

// Sightings returns every appearance of the certificate, in scan order.
func (i *Index) Sightings(id CertID) []Sighting { return i.sightings[id] }

// ScansSeen returns the distinct scan IDs in which the certificate appeared,
// ascending. The slice is precomputed; do not modify it.
func (i *Index) ScansSeen(id CertID) []ScanID { return i.scansSeen[id] }

// IPsInScan returns the distinct IPs that advertised the certificate in one
// scan — the quantity the §6.2 scan-duplicate rule thresholds — sorted
// ascending. The slice is precomputed; do not modify it.
func (i *Index) IPsInScan(id CertID, scan ScanID) []netsim.IP {
	for _, run := range i.perScan[id] {
		if run.Scan == scan {
			return run.IPs
		}
		if run.Scan > scan {
			break // runs are ascending
		}
	}
	return nil
}

// FirstSeen returns the time of the first scan that observed the certificate
// and false if it was never observed.
func (i *Index) FirstSeen(id CertID) (time.Time, bool) {
	s := i.sightings[id]
	if len(s) == 0 {
		return time.Time{}, false
	}
	return i.corpus.Scan(s[0].Scan).Time, true
}

// LastSeen returns the time of the last scan that observed the certificate.
func (i *Index) LastSeen(id CertID) (time.Time, bool) {
	s := i.sightings[id]
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
	runs := i.perScan[id]
	if len(runs) == 0 {
		return 0
	}
	total := 0
	for _, run := range runs {
		total += len(run.IPs)
	}
	return float64(total) / float64(len(runs))
}

// MaxIPsInAnyScan returns the maximum distinct advertising IPs in any single
// scan, the input to the §6.2 uniqueness rule.
func (i *Index) MaxIPsInAnyScan(id CertID) int {
	max := 0
	for _, run := range i.perScan[id] {
		if len(run.IPs) > max {
			max = len(run.IPs)
		}
	}
	return max
}
