package x509lite

import (
	"crypto/ed25519"
	"fmt"
	"math/big"
	"net"
	"time"

	"securepki/internal/asn1der"
)

// Template describes the certificate to create. CreateCertificate reads every
// field; zero values mean "omit". Unlike crypto/x509 the Version is honoured
// verbatim so the simulator can emit the malformed version numbers (2, 4, 13)
// observed in the wild.
type Template struct {
	Version      int // 1 or 3 for well-formed certs; anything else is emitted as-is
	SerialNumber *big.Int
	Issuer       Name
	Subject      Name
	NotBefore    time.Time
	NotAfter     time.Time

	IsCA                    bool
	IncludeBasicConstraints bool
	DNSNames                []string
	IPAddresses             []net.IP
	SubjectKeyID            []byte
	AuthorityKeyID          []byte
	CRLDistributionPoints   []string
	IssuingCertificateURL   []string
	OCSPServer              []string
	PolicyOIDs              [][]int
	KeyUsage                int

	// CorruptSignature flips a signature byte after signing, producing the
	// rare "signature error" class of invalid certificates (0.01% of the
	// paper's corpus).
	CorruptSignature bool

	// ForceGeneralizedTime encodes both validity times as GeneralizedTime
	// regardless of year, violating RFC 5280 §4.1.2.5 for pre-2050 dates the
	// way buggy firmware generators do — the fixture knob behind certlint's
	// time_encoding_mismatch lint.
	ForceGeneralizedTime bool
}

// CreateCertificate builds and signs a DER certificate binding pub to the
// template's subject, signed by signer (the issuer's private key). For a
// self-signed certificate, pass the key pair's own halves and identical
// Subject/Issuer names. The whole certificate is encoded in one buffer: the
// TBS is signed where it lies, and the DER is copied out once at its exact
// size.
func CreateCertificate(tmpl *Template, pub ed25519.PublicKey, signer ed25519.PrivateKey) ([]byte, error) {
	if tmpl.SerialNumber == nil {
		return nil, fmt.Errorf("x509lite: template missing serial number")
	}
	if len(pub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("x509lite: bad public key length %d", len(pub))
	}
	if len(signer) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("x509lite: bad signer key length %d", len(signer))
	}

	var e asn1der.Encoder
	e.Grow(createBufSize)
	e.Sequence(func(e *asn1der.Encoder) {
		tbsStart := e.Len()
		e.Sequence(func(e *asn1der.Encoder) { encodeTBS(e, tmpl, pub) })
		sig := ed25519.Sign(signer, e.Bytes()[tbsStart:])
		if tmpl.CorruptSignature {
			sig[0] ^= 0xff
		}
		encodeAlgorithm(e)
		e.BitString(sig)
	})
	der := make([]byte, e.Len())
	copy(der, e.Bytes())
	return der, nil
}

// createBufSize is CreateCertificate's first buffer: room for the
// simulator's richest certificates (~510 bytes), so a certificate is encoded
// without regrowing the buffer.
const createBufSize = 1024

// encodeTBS appends the contents of the TBSCertificate SEQUENCE.
func encodeTBS(e *asn1der.Encoder, tmpl *Template, pub ed25519.PublicKey) {
	// version [0] EXPLICIT; omitted entirely for v1 per RFC 5280.
	if tmpl.Version != 1 {
		e.ContextExplicit(0, func(e *asn1der.Encoder) {
			e.Int(int64(tmpl.Version - 1))
		})
	}
	e.BigInt(tmpl.SerialNumber)
	encodeAlgorithm(e)
	encodeName(e, tmpl.Issuer)
	e.Sequence(func(e *asn1der.Encoder) { // validity
		if tmpl.ForceGeneralizedTime {
			e.GeneralizedTime(tmpl.NotBefore)
			e.GeneralizedTime(tmpl.NotAfter)
		} else {
			e.Time(tmpl.NotBefore)
			e.Time(tmpl.NotAfter)
		}
	})
	encodeName(e, tmpl.Subject)
	e.Sequence(func(e *asn1der.Encoder) { // SubjectPublicKeyInfo
		encodeAlgorithm(e)
		e.BitString(pub)
	})
	if tmpl.Version != 1 && hasExtensions(tmpl) {
		e.ContextExplicit(3, func(e *asn1der.Encoder) {
			e.Sequence(func(e *asn1der.Encoder) { encodeExtensions(e, tmpl) })
		})
	}
}

func encodeAlgorithm(e *asn1der.Encoder) {
	e.Sequence(func(e *asn1der.Encoder) {
		e.OID(oidEd25519)
	})
}

func encodeName(e *asn1der.Encoder, n Name) {
	e.Sequence(func(e *asn1der.Encoder) {
		encodeAttribute(e, oidCountry, n.Country)
		encodeAttribute(e, oidLocality, n.Locality)
		encodeAttribute(e, oidOrganization, n.Organization)
		encodeAttribute(e, oidOrganizationUnit, n.OrganizationalUnit)
		encodeAttribute(e, oidCommonName, n.CommonName)
	})
}

// encodeAttribute appends one single-attribute RDN, or nothing for an empty
// value.
func encodeAttribute(e *asn1der.Encoder, oid []int, v string) {
	if v == "" {
		return
	}
	e.Set(func(e *asn1der.Encoder) {
		e.Sequence(func(e *asn1der.Encoder) {
			e.OID(oid)
			e.UTF8String(v)
		})
	})
}

// hasExtensions reports whether the template requests any extension, which
// is when encodeExtensions appends at least one.
func hasExtensions(tmpl *Template) bool {
	return tmpl.IncludeBasicConstraints || tmpl.KeyUsage != 0 ||
		len(tmpl.SubjectKeyID) > 0 || len(tmpl.AuthorityKeyID) > 0 ||
		len(tmpl.DNSNames) > 0 || len(tmpl.IPAddresses) > 0 ||
		len(tmpl.CRLDistributionPoints) > 0 ||
		len(tmpl.IssuingCertificateURL) > 0 || len(tmpl.OCSPServer) > 0 ||
		len(tmpl.PolicyOIDs) > 0
}

// encodeExtension appends one Extension: its OID, the critical flag when
// set, and the value build encodes inside the extnValue OCTET STRING.
func encodeExtension(e *asn1der.Encoder, oid []int, critical bool, value func(*asn1der.Encoder)) {
	e.Sequence(func(e *asn1der.Encoder) {
		e.OID(oid)
		if critical {
			e.Bool(true)
		}
		e.OctetStringOf(value)
	})
}

// encodeExtensions appends the contents of the Extensions SEQUENCE.
func encodeExtensions(e *asn1der.Encoder, tmpl *Template) {
	if tmpl.IncludeBasicConstraints {
		encodeExtension(e, oidExtBasicConstraints, true, func(e *asn1der.Encoder) {
			e.Sequence(func(e *asn1der.Encoder) {
				if tmpl.IsCA {
					e.Bool(true)
				}
			})
		})
	}
	if tmpl.KeyUsage != 0 {
		encodeExtension(e, oidExtKeyUsage, true, func(e *asn1der.Encoder) {
			e.BitString([]byte{byte(tmpl.KeyUsage)})
		})
	}
	if len(tmpl.SubjectKeyID) > 0 {
		encodeExtension(e, oidExtSubjectKeyID, false, func(e *asn1der.Encoder) {
			e.OctetString(tmpl.SubjectKeyID)
		})
	}
	if len(tmpl.AuthorityKeyID) > 0 {
		encodeExtension(e, oidExtAuthorityKeyID, false, func(e *asn1der.Encoder) {
			e.Sequence(func(e *asn1der.Encoder) {
				e.ContextImplicitPrimitive(0, tmpl.AuthorityKeyID)
			})
		})
	}
	if len(tmpl.DNSNames) > 0 || len(tmpl.IPAddresses) > 0 {
		encodeExtension(e, oidExtSAN, false, func(e *asn1der.Encoder) {
			e.Sequence(func(e *asn1der.Encoder) {
				for _, dns := range tmpl.DNSNames {
					e.ContextImplicitString(2, dns)
				}
				for _, ip := range tmpl.IPAddresses {
					v4 := ip.To4()
					if v4 == nil {
						v4 = ip
					}
					e.ContextImplicitPrimitive(7, v4)
				}
			})
		})
	}
	if len(tmpl.CRLDistributionPoints) > 0 {
		encodeExtension(e, oidExtCRLDistribution, false, func(e *asn1der.Encoder) {
			e.Sequence(func(e *asn1der.Encoder) {
				for _, url := range tmpl.CRLDistributionPoints {
					e.Sequence(func(e *asn1der.Encoder) { // DistributionPoint
						e.ContextImplicitConstructed(0, func(e *asn1der.Encoder) { // distributionPoint
							e.ContextImplicitConstructed(0, func(e *asn1der.Encoder) { // fullName
								e.ContextImplicitString(6, url) // uniformResourceIdentifier
							})
						})
					})
				}
			})
		})
	}
	if len(tmpl.IssuingCertificateURL) > 0 || len(tmpl.OCSPServer) > 0 {
		encodeExtension(e, oidExtAIA, false, func(e *asn1der.Encoder) {
			e.Sequence(func(e *asn1der.Encoder) {
				for _, url := range tmpl.OCSPServer {
					e.Sequence(func(e *asn1der.Encoder) {
						e.OID(oidAIAOCSP)
						e.ContextImplicitString(6, url)
					})
				}
				for _, url := range tmpl.IssuingCertificateURL {
					e.Sequence(func(e *asn1der.Encoder) {
						e.OID(oidAIACAIssuers)
						e.ContextImplicitString(6, url)
					})
				}
			})
		})
	}
	if len(tmpl.PolicyOIDs) > 0 {
		encodeExtension(e, oidExtCertPolicies, false, func(e *asn1der.Encoder) {
			e.Sequence(func(e *asn1der.Encoder) {
				for _, oid := range tmpl.PolicyOIDs {
					e.Sequence(func(e *asn1der.Encoder) {
						e.OID(oid)
					})
				}
			})
		})
	}
}
