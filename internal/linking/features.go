// Package linking implements the paper's core contribution (§6): linking
// distinct invalid certificates that originate from the same physical device.
//
// The pipeline follows the paper exactly:
//
//  1. Scan-duplicate filtering (§6.2): a certificate advertised from more
//     than two addresses in any single scan — or from exactly two in every
//     scan — is treated as shared across devices and excluded.
//  2. Feature extraction (§6.3.1): candidate link keys are the public key,
//     Common Name, NotBefore/NotAfter, Issuer Name + Serial, the SAN list,
//     and the rare CRL/AIA/OCSP/OID endpoints.
//  3. The lifetime-overlap rule (§6.3.2, Figure 9): certificates sharing a
//     feature value are linked only if no pair of their lifetimes overlaps
//     by more than one scan (one scan of overlap is allowed because a device
//     can renumber — and reissue — mid-scan).
//  4. Evaluation (§6.4): each field is scored by IP-, /24- and AS-level
//     consistency of its linked groups; fields below an AS-consistency
//     threshold (NotBefore, NotAfter, Issuer+Serial in the paper) are
//     rejected, and the remaining fields link certificates iteratively in
//     decreasing AS-consistency order (§6.4.3).
package linking

import (
	"fmt"
	"sort"
	"strings"

	"securepki/internal/x509lite"
)

// Feature identifies one certificate field used for linking.
type Feature int

// Linkable features, in the paper's Table 6 column order.
const (
	FeaturePublicKey Feature = iota
	FeatureNotBefore
	FeatureCommonName
	FeatureNotAfter
	FeatureIssuerSerial
	FeatureSAN
	FeatureCRL
	FeatureAIA
	FeatureOCSP
	FeatureOID
	numFeatures
)

// AllFeatures lists every feature in Table 6 order.
func AllFeatures() []Feature {
	out := make([]Feature, numFeatures)
	for i := range out {
		out[i] = Feature(i)
	}
	return out
}

// String returns the paper's label for the feature.
func (f Feature) String() string {
	switch f {
	case FeaturePublicKey:
		return "Public Key"
	case FeatureNotBefore:
		return "Not Before"
	case FeatureCommonName:
		return "Common Name"
	case FeatureNotAfter:
		return "Not After"
	case FeatureIssuerSerial:
		return "IN + SN"
	case FeatureSAN:
		return "SAN"
	case FeatureCRL:
		return "CRL"
	case FeatureAIA:
		return "AIA"
	case FeatureOCSP:
		return "OCSP"
	case FeatureOID:
		return "OID"
	default:
		return fmt.Sprintf("Feature(%d)", int(f))
	}
}

// Value extracts the feature's link key from a certificate. ok is false when
// the certificate does not carry the feature (no SAN list, no CRL endpoint…).
// Values are opaque strings; equality is the only operation linking needs.
func Value(cert *x509lite.Certificate, f Feature) (value string, ok bool) {
	switch f {
	case FeaturePublicKey:
		return cert.PublicKeyFingerprint().String(), true
	case FeatureNotBefore:
		return fmt.Sprintf("%d", cert.NotBefore.Unix()), true
	case FeatureNotAfter:
		return fmt.Sprintf("%d", cert.NotAfter.Unix()), true
	case FeatureCommonName:
		cn := cert.Subject.CommonName
		if cn == "" {
			return "", false
		}
		return cn, true
	case FeatureIssuerSerial:
		return cert.Issuer.String() + "|" + cert.SerialNumber.String(), true
	case FeatureSAN:
		if len(cert.DNSNames) == 0 && len(cert.IPAddresses) == 0 {
			return "", false
		}
		parts := append([]string(nil), cert.DNSNames...)
		for _, ip := range cert.IPAddresses {
			parts = append(parts, ip.String())
		}
		sort.Strings(parts)
		return strings.Join(parts, ","), true
	case FeatureCRL:
		return joinIfAny(cert.CRLDistributionPoints)
	case FeatureAIA:
		return joinIfAny(cert.IssuingCertificateURL)
	case FeatureOCSP:
		return joinIfAny(cert.OCSPServer)
	case FeatureOID:
		if len(cert.PolicyOIDs) == 0 {
			return "", false
		}
		parts := make([]string, 0, len(cert.PolicyOIDs))
		for _, oid := range cert.PolicyOIDs {
			parts = append(parts, x509lite.OIDString(oid))
		}
		sort.Strings(parts)
		return strings.Join(parts, ","), true
	default:
		return "", false
	}
}

func joinIfAny(urls []string) (string, bool) {
	if len(urls) == 0 {
		return "", false
	}
	sorted := append([]string(nil), urls...)
	sort.Strings(sorted)
	return strings.Join(sorted, ","), true
}

// IPFormattedCN reports whether the certificate's Common Name is a literal
// IPv4 address. The paper excludes such certificates from Common Name
// linking (46.9% of all CNs), since linking devices by their address would
// be circular.
func IPFormattedCN(cert *x509lite.Certificate) bool {
	return x509lite.LooksLikeIPv4(cert.Subject.CommonName)
}
