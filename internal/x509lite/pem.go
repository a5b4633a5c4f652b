package x509lite

import (
	"encoding/pem"
	"fmt"
	"strings"
	"time"
)

// pemType is the PEM block label for certificates.
const pemType = "CERTIFICATE"

// EncodePEM renders a DER certificate in PEM armour.
func EncodePEM(der []byte) []byte {
	return pem.EncodeToMemory(&pem.Block{Type: pemType, Bytes: der})
}

// ParsePEM decodes every CERTIFICATE block in the input, in order. Blocks of
// other types are skipped; a certificate that fails to parse aborts with a
// positional error. It returns an error if no certificate block is present.
func ParsePEM(data []byte) ([]*Certificate, error) {
	var out []*Certificate
	rest := data
	idx := 0
	for {
		var block *pem.Block
		block, rest = pem.Decode(rest)
		if block == nil {
			break
		}
		if block.Type != pemType {
			continue
		}
		cert, err := Parse(block.Bytes)
		if err != nil {
			return nil, fmt.Errorf("x509lite: PEM block %d: %w", idx, err)
		}
		out = append(out, cert)
		idx++
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("x509lite: no CERTIFICATE block found")
	}
	return out, nil
}

// Text renders the certificate like `openssl x509 -text`: every field the
// analyses consume, in a stable, human-readable layout.
func (c *Certificate) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Certificate:\n")
	fmt.Fprintf(&b, "    Version: %d\n", c.Version)
	fmt.Fprintf(&b, "    Serial Number: %s\n", c.SerialNumber)
	fmt.Fprintf(&b, "    Issuer: %s\n", orNone(c.Issuer.String()))
	fmt.Fprintf(&b, "    Validity:\n")
	fmt.Fprintf(&b, "        Not Before: %s\n", c.NotBefore.UTC().Format(time.RFC3339))
	fmt.Fprintf(&b, "        Not After : %s\n", c.NotAfter.UTC().Format(time.RFC3339))
	fmt.Fprintf(&b, "        Period    : %.1f days\n", c.ValidityDays())
	fmt.Fprintf(&b, "    Subject: %s\n", orNone(c.Subject.String()))
	fmt.Fprintf(&b, "    Public Key: Ed25519 %x\n", []byte(c.PublicKey))
	if c.BasicConstraintsValid {
		fmt.Fprintf(&b, "    Basic Constraints: CA=%v\n", c.IsCA)
	}
	if c.KeyUsage != 0 {
		fmt.Fprintf(&b, "    Key Usage: 0x%02x\n", c.KeyUsage)
	}
	if len(c.DNSNames) > 0 || len(c.IPAddresses) > 0 {
		fmt.Fprintf(&b, "    Subject Alternative Names:\n")
		for _, d := range c.DNSNames {
			fmt.Fprintf(&b, "        DNS:%s\n", d)
		}
		for _, ip := range c.IPAddresses {
			fmt.Fprintf(&b, "        IP:%s\n", ip)
		}
	}
	if len(c.SubjectKeyID) > 0 {
		fmt.Fprintf(&b, "    Subject Key ID: %x\n", c.SubjectKeyID)
	}
	if len(c.AuthorityKeyID) > 0 {
		fmt.Fprintf(&b, "    Authority Key ID: %x\n", c.AuthorityKeyID)
	}
	for _, u := range c.CRLDistributionPoints {
		fmt.Fprintf(&b, "    CRL Distribution Point: %s\n", u)
	}
	for _, u := range c.OCSPServer {
		fmt.Fprintf(&b, "    OCSP Responder: %s\n", u)
	}
	for _, u := range c.IssuingCertificateURL {
		fmt.Fprintf(&b, "    CA Issuers: %s\n", u)
	}
	for _, oid := range c.PolicyOIDs {
		fmt.Fprintf(&b, "    Policy: %s\n", OIDString(oid))
	}
	fmt.Fprintf(&b, "    Signature: %x...\n", c.Signature[:min(16, len(c.Signature))])
	fmt.Fprintf(&b, "    SHA-256 Fingerprint: %s\n", c.Fingerprint())
	fmt.Fprintf(&b, "    Self-Issued: %v, Self-Signed: %v\n", c.SelfIssued(), c.SelfSigned())
	return b.String()
}

func orNone(s string) string {
	if s == "" {
		return "(empty)"
	}
	return s
}
