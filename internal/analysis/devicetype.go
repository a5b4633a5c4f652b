package analysis

import (
	"sort"
	"strings"

	"securepki/internal/scanstore"
	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// The paper's Table 4 was produced by manually inspecting the certificates of
// the top 50 invalid issuers (model numbers in names, loading the device web
// pages). This classifier is the codified equivalent: a rule base over
// issuer and subject strings. Rules are ordered; first match wins.

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

type deviceRule struct {
	class    string
	patterns []string // matched case-insensitively against issuer CN + subject CN
}

var deviceRules = []deviceRule{
	{ClassVPN, []string{"vpn", "securegate", "ike", "ipsec"}},
	{ClassFirewall, []string{"fw ", "firewall", "perimeter"}},
	{ClassStorage, []string{"wd2go", "remotewd", "mycloud", "nas", "storage"}},
	{ClassIPCamera, []string{"ipcam", "camera", "netcam", "dvr"}},
	{ClassRemoteAdmin, []string{"vmware", "ilo", "idrac", "appliance", "esx", "management"}},
	{ClassOther, []string{"printer", "iptv", "ip phone", "voip", "embedded https"}},
	{ClassRouter, []string{"fritz", "lancom", "router", "gateway", "dsl", "cable modem", "192.168.", "10.0.", "myfritz"}},
}

// ClassifyDevice assigns a Table 4 class to one certificate.
func ClassifyDevice(cert *x509lite.Certificate) string {
	hay := strings.ToLower(cert.Issuer.CommonName + " | " + cert.Subject.CommonName)
	for _, dns := range cert.DNSNames {
		hay += " | " + strings.ToLower(dns)
	}
	for _, rule := range deviceRules {
		for _, p := range rule.patterns {
			if strings.Contains(hay, p) {
				return rule.class
			}
		}
	}
	// An IP-address CN with no other hints is the classic consumer router.
	if x509lite.LooksLikeIPv4(cert.Subject.CommonName) {
		return ClassRouter
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
