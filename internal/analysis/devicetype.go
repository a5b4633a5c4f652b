package analysis

import (
	"sort"

	"securepki/internal/certlint"
	"securepki/internal/scanstore"
	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// The paper's Table 4 was produced by manually inspecting the certificates of
// the top 50 invalid issuers (model numbers in names, loading the device web
// pages). This classifier is the codified equivalent: certlint's rule base
// over issuer and subject strings, whose device-class profile
// (certlint.ProfilesOf) names the class. Rules are ordered; first match wins.

// DeviceClass labels from Table 4.
const (
	ClassRouter      = "Home router/cable modem"
	ClassUnknown     = "Unknown"
	ClassVPN         = "VPN"
	ClassStorage     = "Remote storage"
	ClassRemoteAdmin = "Remote administration"
	ClassFirewall    = "Firewall"
	ClassIPCamera    = "IP camera"
	ClassOther       = "Other (IPTV, IP phone, Alternate CA, Printer)"
)

// deviceClasses names the class of each device-class profile but the
// unknown one.
var deviceClasses = [...]struct {
	profile certlint.Profile
	class   string
}{
	{certlint.ProfileVPN, ClassVPN},
	{certlint.ProfileFirewall, ClassFirewall},
	{certlint.ProfileStorage, ClassStorage},
	{certlint.ProfileCamera, ClassIPCamera},
	{certlint.ProfileRemoteAdmin, ClassRemoteAdmin},
	{certlint.ProfileOtherDevice, ClassOther},
	{certlint.ProfileRouter, ClassRouter},
}

// ClassifyDevice assigns a Table 4 class to one certificate: the class of
// the device-class profile certlint.ProfilesOf derives from its issuer CN,
// subject CN and SANs, which it reads in place.
func ClassifyDevice(cert *x509lite.Certificate) string {
	p := certlint.ProfilesOf(cert)
	for _, c := range deviceClasses {
		if p&c.profile != 0 {
			return c.class
		}
	}
	return ClassUnknown
}

// DeviceTypeRow is one line of Table 4.
type DeviceTypeRow struct {
	Class    string
	Fraction float64
	Count    int
}

// DeviceTypes reproduces Table 4: classify the invalid certificates belonging
// to the topIssuers most frequent invalid issuers.
func (d *Dataset) DeviceTypes(topIssuers int) []DeviceTypeRow {
	issuerCounts := stats.NewCounter()
	d.EachObserved(func(rec *scanstore.CertRecord, invalid bool) {
		if !invalid {
			return
		}
		cn := rec.Cert.Issuer.CommonName
		if cn == "" {
			cn = emptyIssuerLabel
		}
		issuerCounts.Inc(cn)
	})
	top := make(map[string]bool)
	for _, item := range issuerCounts.Top(topIssuers) {
		top[item.Label] = true
	}

	classCounts := stats.NewCounter()
	total := 0
	d.EachObserved(func(rec *scanstore.CertRecord, invalid bool) {
		if !invalid {
			return
		}
		cn := rec.Cert.Issuer.CommonName
		if cn == "" {
			cn = emptyIssuerLabel
		}
		if !top[cn] {
			return
		}
		classCounts.Inc(ClassifyDevice(rec.Cert))
		total++
	})

	rows := make([]DeviceTypeRow, 0, classCounts.Len())
	for class, n := range classCounts.Map() {
		rows = append(rows, DeviceTypeRow{Class: class, Count: n, Fraction: float64(n) / float64(total)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Class < rows[j].Class
	})
	return rows
}
