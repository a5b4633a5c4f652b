package certlint

import (
	"fmt"
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
		Check: func(c *x509lite.Certificate, _ *Context) (string, bool) {
			if d := c.ValidityDays(); d < 0 {
				return fmt.Sprintf("validity is %.0f days", d), true
			}
			return "", false
		},
	})
	r.MustRegister(Linter{
		ID: "validity_excessive", Version: 1, Severity: Info,
		Describe: "validity period over 10 years (invalid median was 20y)",
		Check: func(c *x509lite.Certificate, _ *Context) (string, bool) {
			if d := c.ValidityDays(); d > 3653 {
				return fmt.Sprintf("validity is %.1f years", d/365.25), true
			}
			return "", false
		},
	})
	r.MustRegister(Linter{
		ID: "validity_beyond_y3000", Version: 1, Severity: Warn,
		Describe: "NotAfter in the year 3000 or later",
		Check: func(c *x509lite.Certificate, _ *Context) (string, bool) {
			if c.NotAfter.Year() >= 3000 {
				return fmt.Sprintf("NotAfter is %d", c.NotAfter.Year()), true
			}
			return "", false
		},
	})
	r.MustRegister(Linter{
		ID: "subject_empty", Version: 1, Severity: Warn,
		Describe: "entirely empty subject (925k certs in the paper)",
		Check: func(c *x509lite.Certificate, _ *Context) (string, bool) {
			if c.Subject.Empty() {
				return "subject has no attributes", true
			}
			return "", false
		},
	})
	r.MustRegister(Linter{
		ID: "subject_private_ip", Version: 1, Severity: Warn,
		Describe: "Common Name is a private (RFC 1918) address",
		Check: func(c *x509lite.Certificate, _ *Context) (string, bool) {
			if isPrivateIPString(c.Subject.CommonName) {
				return "CN " + c.Subject.CommonName, true
			}
			return "", false
		},
	})
	r.MustRegister(Linter{
		ID: "subject_ip", Version: 1, Severity: Info,
		Describe: "Common Name is a literal IP address (46.9% of the paper's CNs)",
		Check: func(c *x509lite.Certificate, _ *Context) (string, bool) {
			cn := c.Subject.CommonName
			if looksLikeIPv4(cn) && !isPrivateIPString(cn) {
				return "CN " + cn, true
			}
			return "", false
		},
	})
	r.MustRegister(Linter{
		// The pre-registry check tested IsCA inline; the registry expresses
		// the same applicability through the profile mask instead.
		ID: "san_missing", Version: 2, Severity: Warn,
		Describe: "leaf certificate without a Subject Alternative Name",
		Profiles: ProfileLeaf,
		Check: func(c *x509lite.Certificate, _ *Context) (string, bool) {
			if len(c.DNSNames) == 0 && len(c.IPAddresses) == 0 {
				return "no SAN extension", true
			}
			return "", false
		},
	})
	r.MustRegister(Linter{
		ID: "revocation_missing", Version: 1, Severity: Info,
		Describe: "no CRL, OCSP or AIA endpoint (99%+ of invalid certs)",
		Check: func(c *x509lite.Certificate, _ *Context) (string, bool) {
			if len(c.CRLDistributionPoints) == 0 && len(c.OCSPServer) == 0 && len(c.IssuingCertificateURL) == 0 {
				return "no revocation endpoints", true
			}
			return "", false
		},
	})
	r.MustRegister(Linter{
		ID: "version_bogus", Version: 2, Severity: Fatal,
		Describe: "X.509 version other than 1 or 3 (the paper saw 2, 4, 13)",
		Check: func(c *x509lite.Certificate, _ *Context) (string, bool) {
			if c.Version != 1 && c.Version != 3 {
				return fmt.Sprintf("version %d", c.Version), true
			}
			return "", false
		},
	})
	r.MustRegister(Linter{
		ID: "version_v1_leaf", Version: 2, Severity: Warn,
		Describe: "version 1 leaf certificate (cannot distinguish CA from leaf)",
		Profiles: ProfileLeaf,
		Check: func(c *x509lite.Certificate, _ *Context) (string, bool) {
			if c.Version == 1 {
				return "v1 certificate", true
			}
			return "", false
		},
	})
	r.MustRegister(Linter{
		ID: "notbefore_ancient", Version: 1, Severity: Warn,
		Describe: "NotBefore before 2008 (firmware epoch clocks)",
		Check: func(c *x509lite.Certificate, _ *Context) (string, bool) {
			if c.NotBefore.Year() > 1 && c.NotBefore.Before(time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)) {
				return "NotBefore " + c.NotBefore.Format("2006-01-02"), true
			}
			return "", false
		},
	})
	r.MustRegister(Linter{
		ID: "self_signed", Version: 1, Severity: Info,
		Describe: "certificate verifies under its own key",
		Check: func(c *x509lite.Certificate, ctx *Context) (string, bool) {
			selfSigned, checked := c.SelfSignedVerdict()
			if checked && ctx != nil {
				ctx.verifies.Add(1)
			}
			if selfSigned {
				return "self-signed", true
			}
			return "", false
		},
	})
	r.MustRegister(Linter{
		ID: "key_shared", Version: 1, Severity: Error,
		Describe: "public key appears in other certificates (47% of the paper's invalid certs)",
		Check: func(c *x509lite.Certificate, ctx *Context) (string, bool) {
			if ctx == nil || ctx.KeyCount == nil {
				return "", false
			}
			if n := ctx.KeyCount[c.PublicKeyFingerprint()]; n > 1 {
				return fmt.Sprintf("key shared by %d certificates", n), true
			}
			return "", false
		},
	})
}
