package analysis

import (
	"time"

	"securepki/internal/scanstore"
	"securepki/internal/stats"
)

// LongevityReport carries the §5.1 distributions: Figure 3 (validity
// periods), Figure 4 (lifetimes) and Figure 5 (NotBefore gap of ephemeral
// certificates).
type LongevityReport struct {
	ValidPeriods   *stats.CDF // days
	InvalidPeriods *stats.CDF

	ValidLifetimes   *stats.CDF // days
	InvalidLifetimes *stats.CDF

	// NegativePeriodFrac is the share of invalid certificates whose
	// NotAfter precedes NotBefore (paper: 5.38%).
	NegativePeriodFrac float64
	// SingleScanInvalidFrac is the share of invalid certificates observed
	// in exactly one scan (paper: ~60%).
	SingleScanInvalidFrac float64

	// NotBeforeGap is Figure 5: first-advertised minus NotBefore, in days,
	// over ephemeral (single-scan) invalid certificates. Negative gaps
	// (clock-ahead devices) are included in the CDF's domain.
	NotBeforeGap *stats.CDF
	// SameDayFrac of ephemeral certs were first seen on their NotBefore day
	// (paper: ~30%); NegativeGapFrac had NotBefore after first sighting
	// (paper: 2.9%); Beyond1000Frac exceeded 1000 days (paper: ~20%).
	SameDayFrac     float64
	NegativeGapFrac float64
	Beyond1000Frac  float64
}

func dateOf(t time.Time) time.Time {
	return time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
}

// Longevity computes the §5.1 report, once.
func (d *Dataset) Longevity() LongevityReport { return d.longevity.get(d.longevityReport) }

func (d *Dataset) longevityReport() LongevityReport {
	var validVP, invalidVP, validLT, invalidLT, gaps []float64
	var negative, invalidTotal, singleScan, sameDay, negGap, far int

	d.EachObserved(func(rec *scanstore.CertRecord, invalid bool) {
		vp := rec.Cert.ValidityDays()
		lt, _ := d.Index.LifetimeDays(rec.ID)
		if !invalid {
			validVP = append(validVP, vp)
			validLT = append(validLT, float64(lt))
			return
		}
		invalidTotal++
		invalidVP = append(invalidVP, vp)
		invalidLT = append(invalidLT, float64(lt))
		if vp < 0 {
			negative++
		}
		if len(d.Index.ScansSeen(rec.ID)) == 1 {
			singleScan++
			first, _ := d.Index.FirstSeen(rec.ID)
			// The paper compares *dates*: a certificate minted mid-scan and
			// observed the same day has a gap of zero, not a negative
			// few hours.
			gap := dateOf(first).Sub(dateOf(rec.Cert.NotBefore)).Hours() / 24
			gaps = append(gaps, gap)
			switch {
			case gap < 0:
				negGap++
			case gap < 1:
				sameDay++
			case gap > 1000:
				far++
			}
		}
	})

	rep := LongevityReport{
		ValidPeriods:     stats.NewCDF(validVP),
		InvalidPeriods:   stats.NewCDF(invalidVP),
		ValidLifetimes:   stats.NewCDF(validLT),
		InvalidLifetimes: stats.NewCDF(invalidLT),
		NotBeforeGap:     stats.NewCDF(gaps),
	}
	if invalidTotal > 0 {
		rep.NegativePeriodFrac = float64(negative) / float64(invalidTotal)
		rep.SingleScanInvalidFrac = float64(singleScan) / float64(invalidTotal)
	}
	if singleScan > 0 {
		rep.SameDayFrac = float64(sameDay) / float64(singleScan)
		rep.NegativeGapFrac = float64(negGap) / float64(singleScan)
		rep.Beyond1000Frac = float64(far) / float64(singleScan)
	}
	return rep
}

// KeySharingReport is §5.2 / Figure 6.
type KeySharingReport struct {
	// ValidCurve / InvalidCurve are Figure 6's (fraction of keys, fraction
	// of certificates) series.
	ValidCurve   []stats.Point
	InvalidCurve []stats.Point

	// SharingInvalidFrac is the share of invalid certificates whose public
	// key appears in at least one other certificate (paper: 47%); likewise
	// for valid.
	SharingInvalidFrac float64
	SharingValidFrac   float64

	// TopKeyInvalidShare is the share of all invalid certificates carrying
	// the single most common key (paper: 6.5% — the Lancom key).
	TopKeyInvalidShare float64

	ValidKeys   int
	InvalidKeys int
}

// KeySharing computes §5.2 over the observed corpus, once.
func (d *Dataset) KeySharing() KeySharingReport { return d.keySharing.get(d.keySharingReport) }

func (d *Dataset) keySharingReport() KeySharingReport {
	validKeys := stats.NewCounter()
	invalidKeys := stats.NewCounter()
	var nValid, nInvalid int
	d.EachObserved(func(rec *scanstore.CertRecord, invalid bool) {
		fp := rec.Cert.PublicKeyFingerprint().String()
		if invalid {
			invalidKeys.Inc(fp)
			nInvalid++
		} else {
			validKeys.Inc(fp)
			nValid++
		}
	})

	rep := KeySharingReport{
		ValidCurve:   stats.SharePairs(validKeys.Values(), 100),
		InvalidCurve: stats.SharePairs(invalidKeys.Values(), 100),
		ValidKeys:    validKeys.Len(),
		InvalidKeys:  invalidKeys.Len(),
	}
	shared := func(c *stats.Counter, total int) float64 {
		if total == 0 {
			return 0
		}
		n := 0
		for _, count := range c.Map() {
			if count > 1 {
				n += count
			}
		}
		return float64(n) / float64(total)
	}
	rep.SharingValidFrac = shared(validKeys, nValid)
	rep.SharingInvalidFrac = shared(invalidKeys, nInvalid)
	if top := invalidKeys.Top(1); len(top) == 1 && nInvalid > 0 {
		rep.TopKeyInvalidShare = float64(top[0].Count) / float64(nInvalid)
	}
	return rep
}
