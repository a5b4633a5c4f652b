package analysis

import (
	"encoding/hex"

	"securepki/internal/scanstore"
	"securepki/internal/stats"
)

// IssuerReport is Table 1 plus the §5.3 parent-key diversity findings.
type IssuerReport struct {
	// TopValid / TopInvalid are the most frequent issuer Common Names
	// (Table 1). Empty issuer CNs are rendered as "(Empty string)".
	TopValid   []stats.RankedItem
	TopInvalid []stats.RankedItem

	// Parent-key diversity (§5.3). Valid certificates concentrate on a
	// handful of CA signing keys; invalid certificates with an Authority
	// Key ID spread over vastly more parent keys.
	ValidParentKeys        int
	InvalidParentKeys      int
	ValidKeysForHalf       int     // paper: 5 keys cover 50% of valid certs
	InvalidTop5KeyCoverage float64 // paper: top-5 cover only 37% of AKI'd invalid certs
}

const emptyIssuerLabel = "(Empty string)"

// Issuers computes Table 1 and §5.3 over the observed corpus, once per
// topN.
func (d *Dataset) Issuers(topN int) IssuerReport {
	return memoOf(d, &d.issuers, topN).get(func() IssuerReport { return d.issuersReport(topN) })
}

func (d *Dataset) issuersReport(topN int) IssuerReport {
	validCN := stats.NewCounter()
	invalidCN := stats.NewCounter()
	validKeys := stats.NewCounter()
	invalidAKI := stats.NewCounter()

	d.EachObserved(func(rec *scanstore.CertRecord, invalid bool) {
		cn := rec.Cert.Issuer.CommonName
		if cn == "" {
			cn = emptyIssuerLabel
		}
		if invalid {
			invalidCN.Inc(cn)
			if len(rec.Cert.AuthorityKeyID) > 0 {
				invalidAKI.Inc(hex.EncodeToString(rec.Cert.AuthorityKeyID))
			}
		} else {
			validCN.Inc(cn)
			// For valid certificates the issuer name identifies the signing
			// key one-to-one in the web PKI; use the AKI when present and
			// fall back to the name.
			key := hex.EncodeToString(rec.Cert.AuthorityKeyID)
			if key == "" {
				key = "name:" + cn
			}
			validKeys.Inc(key)
		}
	})

	rep := IssuerReport{
		TopValid:          validCN.Top(topN),
		TopInvalid:        invalidCN.Top(topN),
		ValidParentKeys:   validKeys.Len(),
		InvalidParentKeys: invalidAKI.Len(),
	}
	validCurve := stats.CoverageCurve(validKeys.Values())
	rep.ValidKeysForHalf = stats.ItemsForCoverage(validCurve, 0.5)
	invalidCurve := stats.CoverageCurve(invalidAKI.Values())
	if len(invalidCurve) >= 5 {
		rep.InvalidTop5KeyCoverage = invalidCurve[4]
	} else if len(invalidCurve) > 0 {
		rep.InvalidTop5KeyCoverage = invalidCurve[len(invalidCurve)-1]
	}
	return rep
}
