package devicesim

import (
	"fmt"
	"math/big"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// Site is one HTTPS website with a CA-issued (valid) certificate: the
// population prior studies focused on. Sites reissue near expiry, reuse their
// key about half the time (Zhang et al.'s finding the paper cites), and may
// be replicated across several addresses (CDN-style), which is why valid
// certificates show far higher host diversity than invalid ones (Figure 7).
type Site struct {
	ID     int
	Domain string

	world *World
	rng   *stats.RNG

	Birth time.Time
	Death time.Time

	ca  *CA
	ips []netsim.IP

	key  *lazyKey     // current key, derived on first use
	cert *pendingCert // current certificate, signed on first use

	now         time.Time
	nextReissue time.Time
}

// Site validity products (days), discretised like commercial CA offerings:
// median 1 year, 90th percentile 3 years (paper Figure 3, valid line).
var siteValidity = []ValidityChoice{
	{90, 0.05},
	{365, 0.55},
	{730, 0.20},
	{1095, 0.15},
	{1825, 0.05},
}

const siteKeyReuseProb = 0.5

func (w *World) newSite(id int, birth time.Time, r *stats.RNG) *Site {
	s := &Site{
		ID:     id,
		Domain: fmt.Sprintf("www.site-%06d.%s", id, []string{"com", "net", "org", "de", "co.uk", "io"}[r.Intn(6)]),
		world:  w,
		rng:    r,
		Birth:  birth,
		now:    birth,
	}
	s.Death = birth.Add(time.Duration(r.Exponential(1500*24)) * time.Hour)
	s.ca = w.pki.Pick(r)

	// Hosting location: content networks dominate, but plenty of sites sit
	// on access and enterprise networks (paper Table 2, valid column).
	var region Region
	switch x := r.Float64(); {
	case x < 0.50:
		region = RegionHosting
	case x < 0.92:
		region = RegionGlobal
	default:
		region = RegionEnterprise
	}
	as := w.pickers[region].Pick(r)

	// Replication: most sites live on one address; a few on a handful; a
	// thin tail on many (load-balanced/CDN deployments).
	replicas := 1
	switch x := r.Float64(); {
	case x < 0.90:
		replicas = 1
	case x < 0.98:
		replicas = 2 + r.Intn(4)
	default:
		replicas = int(r.Pareto(6, 1.1))
		if replicas > 300 {
			replicas = 300
		}
	}
	for i := 0; i < replicas; i++ {
		s.ips = append(s.ips, as.RandomIP(r))
	}

	s.key = drawKey(r)
	s.reissue(birth)
	return s
}

// AliveAt reports whether the site exists at t.
func (s *Site) AliveAt(t time.Time) bool {
	return !t.Before(s.Birth) && t.Before(s.Death)
}

// CurrentCert returns the site's current leaf certificate, signing it if
// nothing has needed it yet.
func (s *Site) CurrentCert() *x509lite.Certificate { return s.cert.get() }

// CA returns the site's issuing CA.
func (s *Site) CA() *CA { return s.ca }

// reissue draws the site's next certificate as of time at; like a
// device's, it is signed on first use.
func (s *Site) reissue(at time.Time) {
	if !s.rng.Bool(siteKeyReuseProb) {
		s.key = drawKey(s.rng)
	}
	days := pickValidity(siteValidity, s.rng)
	notBefore := at.Truncate(time.Hour)
	tmpl := &x509lite.Template{
		Version:               3,
		SerialNumber:          new(big.Int).SetUint64(s.rng.Uint64() >> 1),
		Subject:               x509lite.Name{Organization: fmt.Sprintf("Site %d Inc", s.ID), CommonName: s.Domain},
		Issuer:                s.ca.Name,
		NotBefore:             notBefore,
		NotAfter:              notBefore.AddDate(0, 0, days),
		DNSNames:              []string{s.Domain, "www." + s.Domain},
		AuthorityKeyID:        s.ca.Cert.SubjectKeyID,
		CRLDistributionPoints: []string{fmt.Sprintf("http://crl.ca.example/%s.crl", s.ca.Name.CommonName)},
		OCSPServer:            []string{"http://ocsp.ca.example"},
		IssuingCertificateURL: []string{"http://aia.ca.example/ca.der"},
		PolicyOIDs:            [][]int{{2, 23, 140, 1, 2, 1}},
	}
	s.cert = &pendingCert{w: s.world, tmpl: tmpl, key: s.key, signer: s.ca.Key, device: -1}
	// Reissue shortly before expiry, with operator jitter.
	s.nextReissue = notBefore.AddDate(0, 0, days-7-s.rng.Intn(30))
	if !s.nextReissue.After(at) {
		s.nextReissue = at.AddDate(0, 0, days/2+1)
	}
}

// AdvanceTo applies reissues scheduled before t.
func (s *Site) AdvanceTo(t time.Time) {
	if t.Before(s.now) {
		return
	}
	for s.nextReissue.Before(t) {
		at := s.nextReissue
		s.now = at
		s.reissue(at)
	}
	s.now = t
}

// Appearances lists the site's replicas, each serving the leaf plus its
// intermediate (so CA certificates are observed at every replica address,
// reproducing the paper's valid CA certs served from millions of IPs). The
// replicas share one chain, whose leaf is pending until one of them is
// materialized.
func (s *Site) Appearances(start, end time.Time, _ *stats.RNG) []Appearance {
	if !s.AliveAt(start) {
		return nil
	}
	s.AdvanceTo(start)
	chain := []*x509lite.Certificate{nil, s.ca.Cert}
	apps := make([]Appearance, 0, len(s.ips))
	for _, ip := range s.ips {
		apps = append(apps, Appearance{IP: ip, Chain: chain, leaf: s.cert})
	}
	s.AdvanceTo(end)
	return apps
}
