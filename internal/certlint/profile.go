package certlint

import (
	"sort"
	"strings"

	"securepki/internal/x509lite"
)

// Profile is a bitmask of applicability classes. Every certificate carries
// exactly one structural profile (leaf / subordinate / root, judged from
// basicConstraints and self-issuance the way pkimetal's ProfileId groups do)
// plus exactly one device-class profile mapped from the devicesim population
// (the same issuer/subject rule base analysis.ClassifyDevice codifies from
// the paper's Table 4). A linter declares the union of profiles it applies
// to; zero means "every certificate".
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
// match wins — the same discipline as analysis.ClassifyDevice, restated here
// so the lint layer stays a leaf beside x509lite.
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

// ProfilesOf derives the certificate's profile mask: one structural bit plus
// one device-class bit. It is a pure function of the certificate, so lint
// applicability never depends on worker count or population order.
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
