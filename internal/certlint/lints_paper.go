package certlint

import (
	"strconv"
	"time"

	"securepki/internal/x509lite"
)

// registerPaperLints installs the checks ported from the original battery:
// the paper's §4/§5 invalid-certificate taxonomy. IDs are unchanged from the
// pre-registry linter so persisted findings stay comparable; severities were
// migrated per the table on Severity (Notice→INFO, Warning→WARN,
// Error→ERROR), with version_bogus promoted to FATAL because strict parsers
// reject those certificates outright.
func registerPaperLints(r *Registry) {
	r.MustRegister(Linter{
		ID: "validity_negative", Version: 1, Severity: Error,
		Describe: "NotAfter precedes NotBefore (5.38% of the paper's invalid certs)",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			if d := c.ValidityDays(); d < 0 {
				dst = strconv.AppendFloat(append(dst, "validity is "...), d, 'f', 0, 64)
				return append(dst, " days"...), true
			}
			return dst, false
		},
	})
	r.MustRegister(Linter{
		ID: "validity_excessive", Version: 1, Severity: Info,
		Describe: "validity period over 10 years (invalid median was 20y)",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			if d := c.ValidityDays(); d > 3653 {
				dst = strconv.AppendFloat(append(dst, "validity is "...), d/365.25, 'f', 1, 64)
				return append(dst, " years"...), true
			}
			return dst, false
		},
	})
	r.MustRegister(Linter{
		ID: "validity_beyond_y3000", Version: 1, Severity: Warn,
		Describe: "NotAfter in the year 3000 or later",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			if c.NotAfter.Year() >= 3000 {
				return strconv.AppendInt(append(dst, "NotAfter is "...), int64(c.NotAfter.Year()), 10), true
			}
			return dst, false
		},
	})
	r.MustRegister(Linter{
		ID: "subject_empty", Version: 1, Severity: Warn,
		Describe: "entirely empty subject (925k certs in the paper)",
		Detail:   "subject has no attributes",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			return dst, c.Subject.Empty()
		},
	})
	r.MustRegister(Linter{
		ID: "subject_private_ip", Version: 1, Severity: Warn,
		Describe: "Common Name is a private (RFC 1918) address",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			if isPrivateIPString(c.Subject.CommonName) {
				return append(append(dst, "CN "...), c.Subject.CommonName...), true
			}
			return dst, false
		},
	})
	r.MustRegister(Linter{
		ID: "subject_ip", Version: 1, Severity: Info,
		Describe: "Common Name is a literal IP address (46.9% of the paper's CNs)",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			cn := c.Subject.CommonName
			if x509lite.LooksLikeIPv4(cn) && !isPrivateIPString(cn) {
				return append(append(dst, "CN "...), cn...), true
			}
			return dst, false
		},
	})
	r.MustRegister(Linter{
		// The pre-registry check tested IsCA inline; the registry expresses
		// the same applicability through the profile mask instead.
		ID: "san_missing", Version: 2, Severity: Warn,
		Describe: "leaf certificate without a Subject Alternative Name",
		Profiles: ProfileLeaf,
		Detail:   "no SAN extension",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			return dst, len(c.DNSNames) == 0 && len(c.IPAddresses) == 0
		},
	})
	r.MustRegister(Linter{
		ID: "revocation_missing", Version: 1, Severity: Info,
		Describe: "no CRL, OCSP or AIA endpoint (99%+ of invalid certs)",
		Detail:   "no revocation endpoints",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			return dst, len(c.CRLDistributionPoints) == 0 && len(c.OCSPServer) == 0 && len(c.IssuingCertificateURL) == 0
		},
	})
	r.MustRegister(Linter{
		ID: "version_bogus", Version: 2, Severity: Fatal,
		Describe: "X.509 version other than 1 or 3 (the paper saw 2, 4, 13)",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			if c.Version != 1 && c.Version != 3 {
				return strconv.AppendInt(append(dst, "version "...), int64(c.Version), 10), true
			}
			return dst, false
		},
	})
	r.MustRegister(Linter{
		ID: "version_v1_leaf", Version: 2, Severity: Warn,
		Describe: "version 1 leaf certificate (cannot distinguish CA from leaf)",
		Profiles: ProfileLeaf,
		Detail:   "v1 certificate",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			return dst, c.Version == 1
		},
	})
	r.MustRegister(Linter{
		ID: "notbefore_ancient", Version: 1, Severity: Warn,
		Describe: "NotBefore before 2008 (firmware epoch clocks)",
		Check: func(dst []byte, c *x509lite.Certificate, _ *Context) ([]byte, bool) {
			if c.NotBefore.Year() > 1 && c.NotBefore.Before(time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)) {
				return c.NotBefore.AppendFormat(append(dst, "NotBefore "...), "2006-01-02"), true
			}
			return dst, false
		},
	})
	r.MustRegister(Linter{
		ID: "self_signed", Version: 1, Severity: Info,
		Describe: "certificate verifies under its own key",
		Detail:   "self-signed",
		Check: func(dst []byte, c *x509lite.Certificate, ctx *Context) ([]byte, bool) {
			selfSigned, checked := c.SelfSignedVerdict()
			if checked && ctx != nil {
				ctx.verifies.Add(1)
			}
			return dst, selfSigned
		},
	})
	r.MustRegister(Linter{
		ID: "key_shared", Version: 1, Severity: Error,
		Describe: "public key appears in other certificates (47% of the paper's invalid certs)",
		Check: func(dst []byte, c *x509lite.Certificate, ctx *Context) ([]byte, bool) {
			if ctx == nil || ctx.KeyCount == nil {
				return dst, false
			}
			if n := ctx.KeyCount[c.PublicKeyFingerprint()]; n > 1 {
				dst = strconv.AppendInt(append(dst, "key shared by "...), int64(n), 10)
				return append(dst, " certificates"...), true
			}
			return dst, false
		},
	})
}
