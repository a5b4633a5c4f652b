package core

import (
	"encoding/json"
	"io"

	"securepki/internal/netsim"
)

// Summary is the machine-readable digest of one pipeline run: every headline
// quantity the paper states, as plain numbers. It marshals to JSON for
// downstream tooling (EXPERIMENTS.md regeneration, dashboards, CI deltas).
type Summary struct {
	// Corpus scale.
	Devices     int `json:"devices"`
	Sites       int `json:"sites"`
	Scans       int `json:"scans"`
	UniqueCerts int `json:"unique_certs"`

	// §4.2
	InvalidFraction     float64 `json:"invalid_fraction"`
	SelfSignedOfInvalid float64 `json:"self_signed_of_invalid"`
	UntrustedOfInvalid  float64 `json:"untrusted_of_invalid"`
	MeanPerScanInvalid  float64 `json:"mean_per_scan_invalid"`

	// §5
	InvalidValidityMedianDays float64 `json:"invalid_validity_median_days"`
	ValidValidityMedianDays   float64 `json:"valid_validity_median_days"`
	NegativeValidityFraction  float64 `json:"negative_validity_fraction"`
	InvalidLifetimeMedianDays float64 `json:"invalid_lifetime_median_days"`
	ValidLifetimeMedianDays   float64 `json:"valid_lifetime_median_days"`
	SingleScanInvalidFraction float64 `json:"single_scan_invalid_fraction"`
	KeySharingInvalidFraction float64 `json:"key_sharing_invalid_fraction"`
	TopKeyInvalidShare        float64 `json:"top_key_invalid_share"`
	TopASInvalidShare         float64 `json:"top_as_invalid_share"`
	InvalidTransitAccessShare float64 `json:"invalid_transit_access_share"`

	// §6
	EligibleInvalidCerts int      `json:"eligible_invalid_certs"`
	LinkedCerts          int      `json:"linked_certs"`
	LinkedFraction       float64  `json:"linked_fraction"`
	LinkedGroups         int      `json:"linked_groups"`
	RejectedFields       []string `json:"rejected_fields"`
	PKASConsistency      float64  `json:"pk_as_consistency"`
	GroundTruthPurity    float64  `json:"ground_truth_purity"`
	PairRecall           float64  `json:"pair_recall"`

	// §7
	TrackableBaseline     int     `json:"trackable_baseline"`
	TrackableWithLinking  int     `json:"trackable_with_linking"`
	TrackableGain         float64 `json:"trackable_gain"`
	DevicesChangingAS     int     `json:"devices_changing_as"`
	CountryMoves          int     `json:"country_moves"`
	BulkTransferEvents    int     `json:"bulk_transfer_events"`
	MostlyStaticASes      int     `json:"mostly_static_ases"`
	ASesWithEnoughDevices int     `json:"ases_with_enough_devices"`
}

// Summarize extracts the Summary from a completed pipeline.
func Summarize(p *Pipeline) Summary {
	s := Summary{
		Devices:     len(p.World.Devices),
		Sites:       len(p.World.Sites),
		Scans:       p.Corpus.NumScans(),
		UniqueCerts: p.Corpus.NumCerts(),
	}

	vb := p.Dataset.Validation()
	s.InvalidFraction = vb.InvalidFraction
	s.SelfSignedOfInvalid = vb.SelfSignedOfInvalid
	s.UntrustedOfInvalid = vb.UntrustedOfInvalid
	counts := p.Dataset.CertCounts()
	var sum float64
	for _, c := range counts {
		sum += c.InvalidFraction()
	}
	if len(counts) > 0 {
		s.MeanPerScanInvalid = sum / float64(len(counts))
	}

	lon := p.Dataset.Longevity()
	s.InvalidValidityMedianDays = lon.InvalidPeriods.Median()
	s.ValidValidityMedianDays = lon.ValidPeriods.Median()
	s.NegativeValidityFraction = lon.NegativePeriodFrac
	s.InvalidLifetimeMedianDays = lon.InvalidLifetimes.Median()
	s.ValidLifetimeMedianDays = lon.ValidLifetimes.Median()
	s.SingleScanInvalidFraction = lon.SingleScanInvalidFrac

	ks := p.Dataset.KeySharing()
	s.KeySharingInvalidFraction = ks.SharingInvalidFrac
	s.TopKeyInvalidShare = ks.TopKeyInvalidShare

	ad := p.Dataset.ASDiversity(5)
	s.TopASInvalidShare = ad.TopASInvalidShare
	s.InvalidTransitAccessShare = ad.InvalidByType[netsim.TransitAccess]

	s.EligibleInvalidCerts = p.Linker.EligibleCount()
	s.LinkedCerts = p.LinkResult.LinkedCerts
	s.LinkedFraction = p.LinkResult.LinkedFraction()
	s.LinkedGroups = len(p.LinkResult.Groups)
	for _, f := range p.LinkResult.Rejected {
		s.RejectedFields = append(s.RejectedFields, f.String())
	}
	s.PKASConsistency = publicKeyEval(p.LinkResult).ASConsistency
	truth := p.Linker.EvaluateTruth(p.LinkResult, p.Truth)
	s.GroundTruthPurity = truth.GroupPurity()
	s.PairRecall = truth.PairRecall

	tr := p.Tracker.Trackable(Year)
	s.TrackableBaseline = tr.Baseline
	s.TrackableWithLinking = tr.WithLinking
	s.TrackableGain = tr.Gain()
	mv := p.Tracker.Movement(Year, 10)
	s.DevicesChangingAS = mv.DevicesChanging
	s.CountryMoves = mv.CountryMoves
	s.BulkTransferEvents = len(mv.BulkTransfers)
	rr := p.Tracker.Reassignment(Year, 10)
	s.MostlyStaticASes = rr.MostlyStaticASes
	s.ASesWithEnoughDevices = len(rr.PerAS)
	return s
}

// WriteJSON marshals the summary with indentation.
func (s Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
