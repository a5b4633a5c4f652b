// Package x509lite is a from-scratch X.509 certificate codec: it marshals and
// parses v1/v3 certificates via the internal DER layer, signs and verifies
// them with Ed25519, and exposes the fields and extensions the paper's
// analyses consume (Common Name, validity, public key, SANs, AKI/SKI, CRL
// distribution points, AIA/OCSP endpoints, policy OIDs).
//
// The design follows the gopacket philosophy: a []byte comes in, a typed,
// richly accessorised structure comes out, and malformed input yields a
// descriptive error rather than a panic — the studied corpus contains
// certificates that crash naive parsers.
//
// Ed25519 stands in for RSA/ECDSA so that simulating millions of devices
// with *real, verifiable* signatures stays cheap; the validation logic is
// agnostic to the algorithm.
package x509lite

import (
	"strconv"

	"securepki/internal/asn1der"
)

// OID arc constants used by the codec.
var (
	oidCommonName       = []int{2, 5, 4, 3}
	oidCountry          = []int{2, 5, 4, 6}
	oidLocality         = []int{2, 5, 4, 7}
	oidOrganization     = []int{2, 5, 4, 10}
	oidOrganizationUnit = []int{2, 5, 4, 11}

	oidEd25519 = []int{1, 3, 101, 112}

	oidExtSubjectKeyID     = []int{2, 5, 29, 14}
	oidExtKeyUsage         = []int{2, 5, 29, 15}
	oidExtSAN              = []int{2, 5, 29, 17}
	oidExtBasicConstraints = []int{2, 5, 29, 19}
	oidExtCRLDistribution  = []int{2, 5, 29, 31}
	oidExtCertPolicies     = []int{2, 5, 29, 32}
	oidExtAuthorityKeyID   = []int{2, 5, 29, 35}
	oidExtAIA              = []int{1, 3, 6, 1, 5, 5, 7, 1, 1}

	oidAIAOCSP      = []int{1, 3, 6, 1, 5, 5, 7, 48, 1}
	oidAIACAIssuers = []int{1, 3, 6, 1, 5, 5, 7, 48, 2}
)

// Raw DER content encodings of the arcs above, precomputed so the parse hot
// path dispatches on a byte comparison instead of decoding every OID into a
// freshly allocated arc slice (Decoder.RawOID + bytes.Equal are zero-alloc).
var (
	rawOIDCommonName       = asn1der.OIDContents(oidCommonName)
	rawOIDCountry          = asn1der.OIDContents(oidCountry)
	rawOIDLocality         = asn1der.OIDContents(oidLocality)
	rawOIDOrganization     = asn1der.OIDContents(oidOrganization)
	rawOIDOrganizationUnit = asn1der.OIDContents(oidOrganizationUnit)

	rawOIDEd25519 = asn1der.OIDContents(oidEd25519)

	rawOIDExtSubjectKeyID     = asn1der.OIDContents(oidExtSubjectKeyID)
	rawOIDExtKeyUsage         = asn1der.OIDContents(oidExtKeyUsage)
	rawOIDExtSAN              = asn1der.OIDContents(oidExtSAN)
	rawOIDExtBasicConstraints = asn1der.OIDContents(oidExtBasicConstraints)
	rawOIDExtCRLDistribution  = asn1der.OIDContents(oidExtCRLDistribution)
	rawOIDExtCertPolicies     = asn1der.OIDContents(oidExtCertPolicies)
	rawOIDExtAuthorityKeyID   = asn1der.OIDContents(oidExtAuthorityKeyID)
	rawOIDExtAIA              = asn1der.OIDContents(oidExtAIA)

	rawOIDAIAOCSP      = asn1der.OIDContents(oidAIAOCSP)
	rawOIDAIACAIssuers = asn1der.OIDContents(oidAIACAIssuers)
)

// OIDString renders an OID in dotted form ("2.5.29.17").
func OIDString(oid []int) string { return string(AppendOID(nil, oid)) }

// AppendOID appends the OID, rendered as OIDString renders it, to dst.
func AppendOID(dst []byte, oid []int) []byte {
	for i, arc := range oid {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendInt(dst, int64(arc), 10)
	}
	return dst
}
