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
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"

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
	var r renderer
	b, ok := r.render(cert, f)
	return string(b), ok
}

// renderer writes the bytes of Value into buffers it keeps, so the linker
// keys a certificate without allocating, except for what has to be sorted
// as strings first: SAN IP addresses and a second policy OID.
type renderer struct {
	buf   []byte
	parts []string
}

// render returns Value(cert, f) as bytes valid until the next call.
func (r *renderer) render(cert *x509lite.Certificate, f Feature) ([]byte, bool) {
	b := r.buf[:0]
	switch f {
	case FeaturePublicKey:
		fp := cert.PublicKeyFingerprint()
		b = hex.AppendEncode(b, fp[:])
	case FeatureNotBefore:
		b = strconv.AppendInt(b, cert.NotBefore.Unix(), 10)
	case FeatureNotAfter:
		b = strconv.AppendInt(b, cert.NotAfter.Unix(), 10)
	case FeatureCommonName:
		if cert.Subject.CommonName == "" {
			return nil, false
		}
		b = append(b, cert.Subject.CommonName...)
	case FeatureIssuerSerial:
		b = cert.Issuer.AppendTo(b)
		b = append(b, '|')
		if sn := cert.SerialNumber; sn != nil && sn.IsInt64() {
			b = strconv.AppendInt(b, sn.Int64(), 10)
		} else {
			b = sn.Append(b, 10) // "<nil>" for a nil serial, as String renders it
		}
	case FeatureSAN:
		if len(cert.DNSNames) == 0 && len(cert.IPAddresses) == 0 {
			return nil, false
		}
		parts := append(r.parts[:0], cert.DNSNames...)
		for _, ip := range cert.IPAddresses {
			parts = append(parts, ip.String())
		}
		b = r.join(b, parts)
	case FeatureCRL:
		return r.joinIfAny(b, cert.CRLDistributionPoints)
	case FeatureAIA:
		return r.joinIfAny(b, cert.IssuingCertificateURL)
	case FeatureOCSP:
		return r.joinIfAny(b, cert.OCSPServer)
	case FeatureOID:
		switch len(cert.PolicyOIDs) {
		case 0:
			return nil, false
		case 1: // nothing to sort
			b = x509lite.AppendOID(b, cert.PolicyOIDs[0])
		default:
			parts := r.parts[:0]
			for _, oid := range cert.PolicyOIDs {
				parts = append(parts, x509lite.OIDString(oid))
			}
			b = r.join(b, parts)
		}
	default:
		return nil, false
	}
	r.buf = b
	return b, true
}

// joinIfAny renders a URL list: absent when empty, else sorted and joined.
func (r *renderer) joinIfAny(b []byte, urls []string) ([]byte, bool) {
	if len(urls) == 0 {
		return nil, false
	}
	b = r.join(b, append(r.parts[:0], urls...))
	r.buf = b
	return b, true
}

// join appends parts, sorted, comma-separated, and keeps parts' array for
// the next call.
func (r *renderer) join(b []byte, parts []string) []byte {
	slices.Sort(parts)
	for i, p := range parts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p...)
	}
	r.parts = parts[:0]
	return b
}

// IPFormattedCN reports whether the certificate's Common Name is a literal
// IPv4 address. The paper excludes such certificates from Common Name
// linking (46.9% of all CNs), since linking devices by their address would
// be circular.
func IPFormattedCN(cert *x509lite.Certificate) bool {
	return x509lite.LooksLikeIPv4(cert.Subject.CommonName)
}
