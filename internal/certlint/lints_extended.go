package certlint

import (
	"bytes"
	"cmp"
	"net"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"securepki/internal/x509lite"
)

// keyUsageCertSign is the keyCertSign bit of the KeyUsage extension's first
// byte (bit 5 of the DER BIT STRING, MSB-first — crypto/x509's
// KeyUsageCertSign in wire order).
const keyUsageCertSign = 0x04

// registerExtendedLints installs the checks added with the registry: RFC
// 5280 conformance rules the original battery did not cover, several of them
// scoped by profile to the device classes where the paper's population makes
// the rule meaningful.
func registerExtendedLints(r *Registry) {
	r.MustRegister(Linter{
		ID: "serial_nonpositive", Version: 1, Severity: Error,
		Describe: "serial number is zero or negative (RFC 5280 §4.1.2.2 requires a positive integer)",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			if c.SerialNumber == nil {
				return append(dst, "serial absent"...), true
			}
			if c.SerialNumber.Sign() <= 0 {
				return c.SerialNumber.Append(append(dst, "serial "...), 10), true
			}
			return dst, false
		},
	})
	r.MustRegister(Linter{
		ID: "serial_absurd_length", Version: 1, Severity: Fatal,
		Describe: "serial number longer than 20 octets (RFC 5280 cap; strict parsers reject)",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			if c.SerialNumber == nil {
				return dst, false
			}
			if n := (c.SerialNumber.BitLen() + 7) / 8; n > 20 { // len(Bytes()), uncopied
				dst = strconv.AppendInt(append(dst, "serial is "...), int64(n), 10)
				return append(dst, " octets"...), true
			}
			return dst, false
		},
	})
	r.MustRegister(Linter{
		ID: "san_duplicate", Version: 1, Severity: Warn,
		Describe: "Subject Alternative Name lists the same name twice",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			// dNSNames repeat when they lower-case alike; IP addresses when
			// they print alike, an IPv4 address and its IPv6-mapped form
			// included.
			dns := c.DNSNames
			if j := firstRepeat(len(dns), func(a, b int) int { return compareLower(dns[a], dns[b]) }); j >= 0 {
				return append(append(dst, "duplicate SAN "...), dns[j]...), true
			}
			ips := c.IPAddresses
			if j := firstRepeat(len(ips), func(a, b int) int { return compareIP(ips[a], ips[b]) }); j >= 0 {
				return append(append(dst, "duplicate SAN "...), ips[j].String()...), true
			}
			return dst, false
		},
	})
	r.MustRegister(Linter{
		ID: "time_encoding_mismatch", Version: 1, Severity: Error,
		Describe: "validity time DER encoding violates RFC 5280 §4.1.2.5 (GeneralizedTime before 2050 or UTCTime from 2050 on)",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			bad := func(year int, generalized bool) bool {
				if year <= 1 { // zero time: field never parsed
					return false
				}
				return generalized != (year >= 2050)
			}
			field, year, generalized := "", 0, false
			switch {
			case bad(c.NotBefore.Year(), c.NotBeforeGeneralized):
				field, year, generalized = "NotBefore", c.NotBefore.Year(), c.NotBeforeGeneralized
			case bad(c.NotAfter.Year(), c.NotAfterGeneralized):
				field, year, generalized = "NotAfter", c.NotAfter.Year(), c.NotAfterGeneralized
			default:
				return dst, false
			}
			dst = strconv.AppendInt(append(append(dst, field...), " year "...), int64(year), 10)
			return append(append(dst, " encoded as "...), timeTagName(generalized)...), true
		},
	})
	r.MustRegister(Linter{
		ID: "basicconstraints_missing_ca", Version: 1, Severity: Warn,
		Describe: "certificate asserts CA powers (keyCertSign or a CA-styled name) without a basicConstraints extension",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			if c.BasicConstraintsValid {
				return dst, false
			}
			if c.KeyUsage&keyUsageCertSign != 0 {
				return append(dst, "keyCertSign without basicConstraints"...), true
			}
			cn := c.Subject.CommonName
			if containsFold(cn, "certificate authority") || hasSuffixFold(cn, " ca") || containsFold(cn, "root ca") {
				return append(append(dst, "CA-styled name without basicConstraints: "...), cn...), true
			}
			return dst, false
		},
	})
	r.MustRegister(Linter{
		ID: "key_usage_missing", Version: 1, Severity: Info,
		Describe: "leaf certificate without a KeyUsage extension",
		Profiles: ProfileLeaf,
		Detail:   "no KeyUsage extension",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			return dst, c.KeyUsage == 0
		},
	})
	r.MustRegister(Linter{
		ID: "dns_name_malformed", Version: 1, Severity: Warn,
		Describe: "SAN dNSName is not a well-formed DNS name (bad label length, characters or wildcard position)",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			for _, d := range c.DNSNames {
				if !wellFormedDNSName(d) {
					return strconv.AppendQuote(append(dst, "malformed dNSName "...), d), true
				}
			}
			return dst, false
		},
	})
	r.MustRegister(Linter{
		ID: "revocation_expected_enterprise", Version: 1, Severity: Warn,
		Describe: "enterprise-class device certificate (VPN, firewall, remote admin) without revocation plumbing",
		Profiles: ProfileVPN | ProfileFirewall | ProfileRemoteAdmin,
		Detail:   "enterprise device without revocation endpoints",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			return dst, len(c.CRLDistributionPoints) == 0 && len(c.OCSPServer) == 0 && len(c.IssuingCertificateURL) == 0
		},
	})
}

func timeTagName(generalized bool) string {
	if generalized {
		return "GeneralizedTime"
	}
	return "UTCTime"
}

// wellFormedDNSName checks the preferred name syntax of RFC 1035 §2.3.1 as
// relaxed for certificates: labels of 1–63 LDH characters, digits allowed in
// any position, and at most one wildcard, only as the entire leftmost label.
func wellFormedDNSName(s string) bool {
	if s == "" || len(s) > 253 {
		return false
	}
	for start := 0; start <= len(s); {
		end := strings.IndexByte(s[start:], '.')
		if end < 0 {
			end = len(s)
		} else {
			end += start
		}
		l := s[start:end]
		if start == 0 && l == "*" && end < len(s) {
			start = end + 1
			continue
		}
		if len(l) == 0 || len(l) > 63 {
			return false
		}
		if l[0] == '-' || l[len(l)-1] == '-' {
			return false
		}
		for i := 0; i < len(l); i++ {
			switch ch := l[i]; {
			case ch >= 'a' && ch <= 'z':
			case ch >= 'A' && ch <= 'Z':
			case ch >= '0' && ch <= '9':
			case ch == '-' || ch == '_':
			default:
				return false
			}
		}
		start = end + 1
	}
	return true
}

// firstRepeat returns the index of the first of n elements that compares
// equal to an earlier one, or -1. A short list is compared pair by pair; a
// long one is sorted as a list of indexes, so a hostile SAN list costs
// n log n comparisons, not n².
func firstRepeat(n int, compare func(a, b int) int) int {
	if n <= 16 {
		for j := 1; j < n; j++ {
			for i := 0; i < j; i++ {
				if compare(i, j) == 0 {
					return j
				}
			}
		}
		return -1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, compare)
	first := -1
	for k := 1; k < n; k++ {
		// Equal elements sort together in index order, so the second of
		// each run is its first repeat.
		if compare(order[k-1], order[k]) == 0 && (first < 0 || order[k] < first) {
			first = order[k]
		}
	}
	return first
}

// compareLower orders strings.ToLower(a) against strings.ToLower(b) without
// building either: rune by rune through unicode.ToLower, an invalid byte
// reading as utf8.RuneError, as strings.ToLower reads it.
func compareLower(a, b string) int {
	for a != "" && b != "" {
		ra, wa := utf8.DecodeRuneInString(a)
		rb, wb := utf8.DecodeRuneInString(b)
		if c := cmp.Compare(unicode.ToLower(ra), unicode.ToLower(rb)); c != 0 {
			return c
		}
		a, b = a[wa:], b[wb:]
	}
	return cmp.Compare(len(a), len(b))
}

// compareIP orders IP addresses so that two compare equal exactly when
// their String forms are equal: an IPv4 address and its IPv6-mapped form
// are one address.
func compareIP(a, b net.IP) int {
	if a4 := a.To4(); a4 != nil {
		a = a4
	}
	if b4 := b.To4(); b4 != nil {
		b = b4
	}
	return cmp.Or(cmp.Compare(len(a), len(b)), bytes.Compare(a, b))
}
