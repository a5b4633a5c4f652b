package certlint

import (
	"math/big"
	"net"
	"strings"
	"testing"

	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// The name checks read names in place instead of lower-casing, splitting or
// mapping them. These tests hold each one to a reference form that builds
// what it reads, over mixed-case, non-ASCII and invalid UTF-8 names.

// foldFragments are the pieces random names are drawn from: pattern
// fragments in mixed case, the separator, runes whose lower case is ASCII
// (the Kelvin sign, the dotted capital I), runes whose lower case is not,
// and invalid UTF-8.
var foldFragments = []string{
	"VPN", "vpn", "Ike", "I\u212aE", "\u0130ke", "iKE", "ipsec", "FW", "fw ", "Fw", " ", " | ", "|",
	"FireWall", "wd2go", "WD2GO", "Nas", "NAS", "storage", "ipCam", "DVR", "vmware", "ILO", "ilo",
	"IP Phone", "ip", "phone", "Embedded HTTPS", "FRITZ!Box", "LANCOM", "Router", "DSL", "cable",
	"Modem", "192.168.", "10.0.", "1", ".", "myfritz", "Root CA", " CA", "ca", "Certificate Authority",
	"é", "É", "ß", "\ufb01rewall", "\uff36", "\xff", "\xc4", "\xe2\x84", "\ufffd", "-", "_", "*", "x",
	"device", "example", "\u212a", "K", "k",
}

func randomName(rng *stats.RNG) string {
	var b strings.Builder
	for n := rng.Intn(5); n > 0; n-- {
		b.WriteString(foldFragments[rng.Intn(len(foldFragments))])
	}
	return b.String()
}

// profilesOfLowered is the reference form of ProfilesOf: the device class
// searched in a lower-cased haystack built from the names.
func profilesOfLowered(c *x509lite.Certificate) Profile {
	var p Profile
	switch {
	case !c.IsCA:
		p = ProfileLeaf
	case c.SelfIssued():
		p = ProfileRoot
	default:
		p = ProfileSubordinate
	}
	hay := strings.ToLower(c.Issuer.CommonName + " | " + c.Subject.CommonName)
	for _, dns := range c.DNSNames {
		hay += " | " + strings.ToLower(dns)
	}
	for _, rule := range deviceClassRules {
		for _, pat := range rule.patterns {
			if strings.Contains(hay, pat) {
				return p | rule.profile
			}
		}
	}
	if x509lite.LooksLikeIPv4(c.Subject.CommonName) {
		return p | ProfileRouter
	}
	return p | ProfileUnknownDevice
}

func TestProfilesOfMatchesLoweredHaystack(t *testing.T) {
	certs := []*x509lite.Certificate{
		{Issuer: x509lite.Name{CommonName: "FRITZ!Box"}, Subject: x509lite.Name{CommonName: "fritz.box"}},
		{Issuer: x509lite.Name{CommonName: "I\u212aE gateway"}, Subject: x509lite.Name{CommonName: "x"}},
		{Issuer: x509lite.Name{CommonName: "\u0130KE"}, Subject: x509lite.Name{CommonName: "x"}},
		{Issuer: x509lite.Name{CommonName: "corp-fw"}, Subject: x509lite.Name{CommonName: "host"}},
		{Issuer: x509lite.Name{CommonName: "corp"}, Subject: x509lite.Name{CommonName: "fw"}},
		{Issuer: x509lite.Name{CommonName: "ip"}, Subject: x509lite.Name{CommonName: "phone"}},
		{Issuer: x509lite.Name{CommonName: "\uff36\uff30\uff2e"}, Subject: x509lite.Name{CommonName: "\ufb01rewall"}},
		{Issuer: x509lite.Name{CommonName: "a\xffvpn"}, Subject: x509lite.Name{CommonName: "\xc4"}, DNSNames: []string{"", "NAS"}},
		{Subject: x509lite.Name{CommonName: "192.168.1.1"}, IsCA: true},
		{IsCA: true, DNSNames: []string{"Cable", "Modem", "cable modem"}},
	}
	rng := stats.NewRNG(23)
	for i := 0; i < 20000; i++ {
		c := &x509lite.Certificate{
			Issuer:  x509lite.Name{CommonName: randomName(rng)},
			Subject: x509lite.Name{CommonName: randomName(rng)},
			IsCA:    rng.Intn(2) == 0,
		}
		for n := rng.Intn(3); n > 0; n-- {
			c.DNSNames = append(c.DNSNames, randomName(rng))
		}
		certs = append(certs, c)
	}
	classes := map[Profile]int{}
	for _, c := range certs {
		got, want := ProfilesOf(c), profilesOfLowered(c)
		if got != want {
			t.Fatalf("ProfilesOf(issuer %q, subject %q, SANs %q) = %v, lowered haystack gives %v",
				c.Issuer.CommonName, c.Subject.CommonName, c.DNSNames, got, want)
		}
		classes[got&^(ProfileLeaf|ProfileSubordinate|ProfileRoot)]++
	}
	if len(classes) < 8 {
		t.Errorf("the names reached %d device classes, want all 8: %v", len(classes), classes)
	}
}

// TestFoldChecksMatchToLower: the CA-name checks and the dNSName
// comparison read strings.ToLower's output without building it.
func TestFoldChecksMatchToLower(t *testing.T) {
	rng := stats.NewRNG(29)
	pats := []string{" ca", "root ca", "certificate authority", "ike", "k", ""}
	for i := 0; i < 20000; i++ {
		s := randomName(rng)
		lower := strings.ToLower(s)
		for _, pat := range pats {
			if got, want := containsFold(s, pat), strings.Contains(lower, pat); got != want {
				t.Fatalf("containsFold(%q, %q) = %v, want %v", s, pat, got, want)
			}
			if got, want := hasSuffixFold(s, pat), strings.HasSuffix(lower, pat); got != want {
				t.Fatalf("hasSuffixFold(%q, %q) = %v, want %v", s, pat, got, want)
			}
		}
		u := randomName(rng)
		if got, want := compareLower(s, u) == 0, lower == strings.ToLower(u); got != want {
			t.Fatalf("compareLower(%q, %q) == 0 is %v, want %v", s, u, got, want)
		}
		if got, want := compareLower(s, strings.ToUpper(s)) == 0, lower == strings.ToLower(strings.ToUpper(s)); got != want {
			t.Fatalf("compareLower(%q, upper) == 0 is %v, want %v", s, got, want)
		}
	}
}

// sanDuplicateMapped is the reference form of san_duplicate's check, over
// a set of lower-cased and printed names.
func sanDuplicateMapped(dns []string, ips []net.IP) (string, bool) {
	seen := map[string]bool{}
	for _, d := range dns {
		k := "dns:" + strings.ToLower(d)
		if seen[k] {
			return "duplicate SAN " + d, true
		}
		seen[k] = true
	}
	for _, ip := range ips {
		k := "ip:" + ip.String()
		if seen[k] {
			return "duplicate SAN " + ip.String(), true
		}
		seen[k] = true
	}
	return "", false
}

func TestSANDuplicateMatchesSet(t *testing.T) {
	l, _ := Default().Lookup("san_duplicate")
	rng := stats.NewRNG(31)
	ipPool := []net.IP{
		net.IPv4(10, 0, 0, 1).To4(), net.IPv4(10, 0, 0, 1), net.IPv4(10, 0, 0, 2).To4(),
		net.ParseIP("2001:db8::1"), net.ParseIP("2001:db8::2"), {}, nil, {1, 2, 3}, {1, 2, 3, 4, 5},
	}
	for i := 0; i < 5000; i++ {
		c := &x509lite.Certificate{}
		// Short lists take the pairwise path, long ones the sorted one.
		size := rng.Intn(6)
		if i%5 == 0 {
			size = 17 + rng.Intn(30)
		}
		for n := size; n > 0; n-- {
			c.DNSNames = append(c.DNSNames, randomName(rng))
		}
		for n := rng.Intn(4); n > 0; n-- {
			c.IPAddresses = append(c.IPAddresses, ipPool[rng.Intn(len(ipPool))])
		}
		detail, hit := l.Check(nil, c, nil)
		wantDetail, wantHit := sanDuplicateMapped(c.DNSNames, c.IPAddresses)
		if hit != wantHit || string(detail) != wantDetail {
			t.Fatalf("san_duplicate(%q, %v) = %q, %v; the set gives %q, %v",
				c.DNSNames, c.IPAddresses, detail, hit, wantDetail, wantHit)
		}
	}
}

// wellFormedDNSNameSplit is the reference form of wellFormedDNSName, over
// split labels.
func wellFormedDNSNameSplit(s string) bool {
	if s == "" || len(s) > 253 {
		return false
	}
	labels := strings.Split(s, ".")
	for i, l := range labels {
		if l == "*" && i == 0 && len(labels) > 1 {
			continue
		}
		if len(l) == 0 || len(l) > 63 {
			return false
		}
		if l[0] == '-' || l[len(l)-1] == '-' {
			return false
		}
		for _, ch := range []byte(l) {
			switch {
			case ch >= 'a' && ch <= 'z':
			case ch >= 'A' && ch <= 'Z':
			case ch >= '0' && ch <= '9':
			case ch == '-' || ch == '_':
			default:
				return false
			}
		}
	}
	return true
}

func TestWellFormedDNSNameMatchesSplit(t *testing.T) {
	names := []string{"*", "*.", ".", "..", "*.a", "a.*", "*.*.a", "a-.b", "-a.b", strings.Repeat("a", 63) + ".b",
		strings.Repeat("a", 64) + ".b", strings.Repeat("a.", 127), strings.Repeat("a.", 126) + "a"}
	rng := stats.NewRNG(37)
	alphabet := []string{"a", "Z", "0", "-", "_", ".", "*", " ", "é", "\xff", "ab", "x."}
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		names = append(names, b.String())
	}
	for _, s := range names {
		if got, want := wellFormedDNSName(s), wellFormedDNSNameSplit(s); got != want {
			t.Fatalf("wellFormedDNSName(%q) = %v, split labels give %v", s, got, want)
		}
	}
}

// TestSerialOctetsMatchBytes: serial_absurd_length counts (BitLen()+7)/8
// octets, which is len(Bytes()) without the copy, for either sign.
func TestSerialOctetsMatchBytes(t *testing.T) {
	for _, bits := range []int{0, 1, 7, 8, 9, 159, 160, 161, 168, 169, 4096} {
		for _, neg := range []bool{false, true} {
			n := new(big.Int).Lsh(big.NewInt(1), uint(bits))
			n.Sub(n, big.NewInt(1))
			if neg {
				n.Neg(n)
			}
			if got, want := (n.BitLen()+7)/8, len(n.Bytes()); got != want {
				t.Errorf("serial %v: %d octets by BitLen, %d by Bytes", n, got, want)
			}
		}
	}
}
