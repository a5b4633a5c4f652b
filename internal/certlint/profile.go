package certlint

import (
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"securepki/internal/x509lite"
)

// Profile is a bitmask of applicability classes. Every certificate carries
// exactly one structural profile (leaf / subordinate / root, judged from
// basicConstraints and self-issuance the way pkimetal's ProfileId groups do)
// plus exactly one device-class profile mapped from the devicesim population
// (the issuer/subject rule base behind the paper's Table 4, whose classes
// analysis.ClassifyDevice reads from it). A linter declares the union of
// profiles it applies to; zero means "every certificate".
type Profile uint16

// Structural profiles.
const (
	ProfileLeaf Profile = 1 << iota
	ProfileSubordinate
	ProfileRoot

	// Device-class profiles, mapped from the devicesim population.
	ProfileRouter
	ProfileStorage
	ProfileVPN
	ProfileFirewall
	ProfileCamera
	ProfileRemoteAdmin
	ProfileOtherDevice
	ProfileUnknownDevice
)

// ProfileAll is the zero mask: applicable to every certificate.
const ProfileAll Profile = 0

// profileNames maps each bit to its stable config-file name.
var profileNames = map[Profile]string{
	ProfileLeaf:          "leaf",
	ProfileSubordinate:   "subordinate",
	ProfileRoot:          "root",
	ProfileRouter:        "router",
	ProfileStorage:       "storage",
	ProfileVPN:           "vpn",
	ProfileFirewall:      "firewall",
	ProfileCamera:        "camera",
	ProfileRemoteAdmin:   "remote-admin",
	ProfileOtherDevice:   "other-device",
	ProfileUnknownDevice: "unknown-device",
}

// String renders the mask as a sorted comma-joined name list; the zero mask
// renders as "all".
func (p Profile) String() string {
	if p == ProfileAll {
		return "all"
	}
	var names []string
	for bit, name := range profileNames {
		if p&bit != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// ParseProfile resolves one config-file profile name to its bit.
func ParseProfile(name string) (Profile, bool) {
	switch name {
	case "all":
		return ProfileAll, true
	case "leaf":
		return ProfileLeaf, true
	case "subordinate":
		return ProfileSubordinate, true
	case "root":
		return ProfileRoot, true
	case "router":
		return ProfileRouter, true
	case "storage":
		return ProfileStorage, true
	case "vpn":
		return ProfileVPN, true
	case "firewall":
		return ProfileFirewall, true
	case "camera":
		return ProfileCamera, true
	case "remote-admin":
		return ProfileRemoteAdmin, true
	case "other-device":
		return ProfileOtherDevice, true
	case "unknown-device":
		return ProfileUnknownDevice, true
	}
	return 0, false
}

// deviceClassRule maps substring patterns over the lower-cased issuer CN,
// subject CN and SANs to a device-class profile. Rules are ordered; first
// match wins. This is the one device rule base: analysis.ClassifyDevice
// names Table 4's classes from the profile it yields, so the lint layer
// stays a leaf beside x509lite.
type deviceClassRule struct {
	profile  Profile
	patterns []string
}

var deviceClassRules = []deviceClassRule{
	{ProfileVPN, []string{"vpn", "securegate", "ike", "ipsec"}},
	{ProfileFirewall, []string{"fw ", "firewall", "perimeter"}},
	{ProfileStorage, []string{"wd2go", "remotewd", "mycloud", "nas", "storage"}},
	{ProfileCamera, []string{"ipcam", "camera", "netcam", "dvr"}},
	{ProfileRemoteAdmin, []string{"vmware", "ilo", "idrac", "appliance", "esx", "management"}},
	{ProfileOtherDevice, []string{"printer", "iptv", "ip phone", "voip", "embedded https"}},
	{ProfileRouter, []string{"fritz", "lancom", "router", "gateway", "dsl", "cable modem", "192.168.", "10.0.", "myfritz"}},
}

// rulePattern is one device-class pattern after its first byte, with the
// index of its rule.
type rulePattern struct {
	rule int
	rest string
}

// patternsByFirst lists every device-class pattern under its first byte, in
// rule order. The patterns are lower-case ASCII.
var patternsByFirst = func() (by [utf8.RuneSelf][]rulePattern) {
	for i, rule := range deviceClassRules {
		for _, pat := range rule.patterns {
			by[pat[0]] = append(by[pat[0]], rulePattern{rule: i, rest: pat[1:]})
		}
	}
	return by
}()

// ProfilesOf derives the certificate's profile mask: one structural bit plus
// one device-class bit. It is a pure function of the certificate, so lint
// applicability never depends on worker count or population order.
//
// The device class is the first rule with a pattern anywhere in the issuer
// CN, the subject CN and the SAN dNSNames, joined by " | " and lower-cased
// as strings.ToLower lowers them. The text is read through foldByte where
// it lies, never built.
func ProfilesOf(c *x509lite.Certificate) Profile {
	var p Profile
	switch {
	case !c.IsCA:
		p = ProfileLeaf
	case c.SelfIssued():
		p = ProfileRoot
	default:
		p = ProfileSubordinate
	}

	hay := nameHay{c}
	best := len(deviceClassRules)
	for k := 0; best > 0; k++ {
		s, ok := hay.piece(k)
		if !ok {
			break
		}
		for i := 0; i < len(s) && best > 0; {
			b, w := foldByte(s[i:])
			i += w
			if b >= utf8.RuneSelf {
				continue
			}
			for _, pat := range patternsByFirst[b] {
				if pat.rule >= best {
					break
				}
				if hay.hasPrefix(k, i, pat.rest) {
					best = pat.rule
					break
				}
			}
		}
	}
	if best < len(deviceClassRules) {
		return p | deviceClassRules[best].profile
	}
	if x509lite.LooksLikeIPv4(c.Subject.CommonName) {
		return p | ProfileRouter
	}
	return p | ProfileUnknownDevice
}

// nameHay is the text ProfilesOf searches, read in pieces: the issuer CN,
// " | ", the subject CN, then " | " and a SAN dNSName per name.
type nameHay struct{ c *x509lite.Certificate }

// piece returns the k-th piece, false past the last.
func (h nameHay) piece(k int) (string, bool) {
	switch {
	case k >= 2*(2+len(h.c.DNSNames))-1:
		return "", false
	case k%2 == 1:
		return " | ", true
	case k == 0:
		return h.c.Issuer.CommonName, true
	case k == 2:
		return h.c.Subject.CommonName, true
	}
	return h.c.DNSNames[k/2-2], true
}

// hasPrefix reports whether the lower-cased text from byte off of piece k
// on starts with pat, which may run on into the pieces after it.
func (h nameHay) hasPrefix(k, off int, pat string) bool {
	s, _ := h.piece(k)
	for j := 0; j < len(pat); j++ {
		for off == len(s) {
			k, off = k+1, 0
			var ok bool
			if s, ok = h.piece(k); !ok {
				return false
			}
		}
		b, w := foldByte(s[off:])
		if b != pat[j] {
			return false
		}
		off += w
	}
	return true
}

// foldByte reads the first rune of s and returns its width and the byte it
// stands for in a search for ASCII patterns over strings.ToLower(s): the
// rune's lower case where that is ASCII, else utf8.RuneSelf, which no
// pattern byte equals. An invalid byte reads as utf8.RuneError, one byte
// wide, as strings.ToLower reads it. Every ASCII pattern then matches
// strings.ToLower(s) exactly where it matches the bytes foldByte gives.
func foldByte(s string) (byte, int) {
	if b := s[0]; b < utf8.RuneSelf {
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		return b, 1
	}
	r, w := utf8.DecodeRuneInString(s)
	if l := unicode.ToLower(r); l < utf8.RuneSelf {
		return byte(l), w // the Kelvin sign and the dotted capital I
	}
	return utf8.RuneSelf, w
}

// containsFold reports whether strings.ToLower(s) contains the lower-case
// ASCII pattern pat.
func containsFold(s, pat string) bool {
	for i := 0; i < len(s); {
		if hasPrefixFold(s[i:], pat) {
			return true
		}
		_, w := foldByte(s[i:])
		i += w
	}
	return pat == ""
}

// hasPrefixFold reports whether strings.ToLower(s) starts with the
// lower-case ASCII pattern pat.
func hasPrefixFold(s, pat string) bool {
	i := 0
	for j := 0; j < len(pat); j++ {
		if i == len(s) {
			return false
		}
		b, w := foldByte(s[i:])
		if b != pat[j] {
			return false
		}
		i += w
	}
	return true
}

// hasSuffixFold reports whether strings.ToLower(s) ends with the lower-case
// ASCII pattern pat.
func hasSuffixFold(s, pat string) bool {
	skip := foldLen(s) - len(pat)
	if skip < 0 {
		return false
	}
	i := 0
	for ; skip > 0; skip-- {
		_, w := foldByte(s[i:])
		i += w
	}
	return hasPrefixFold(s[i:], pat)
}

// foldLen counts the runes of s as strings.ToLower reads them.
func foldLen(s string) int {
	n := 0
	for i := 0; i < len(s); n++ {
		_, w := foldByte(s[i:])
		i += w
	}
	return n
}
