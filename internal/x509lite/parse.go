package x509lite

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"net"

	"securepki/internal/asn1der"
)

// ParseError reports a certificate that could not be decoded; the studied
// corpus contains certificates that openssl itself fails to parse, and the
// validation pipeline classifies these separately rather than dropping them.
type ParseError struct {
	Field string
	Err   error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("x509lite: parsing %s: %v", e.Field, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

func parseErr(field string, err error) error { return &ParseError{Field: field, Err: err} }

// Parse decodes a DER certificate. The input is retained (not copied) in
// Raw/RawTBS — gopacket-style NoCopy semantics; callers that reuse buffers
// must copy first. Both SHA-256 digests (certificate and public key) are
// computed here, once, and memoized on the returned Certificate.
//
// The body is the corpus loader's hot loop — millions of certificates pass
// through on every snapshot load — so it is written allocation-consciously:
// child decoders live on the stack (asn1der's value-returning descend
// methods), OIDs dispatch on raw content bytes instead of decoded arc
// slices, and the SAN/policy slices are sized exactly before filling.
func Parse(der []byte) (*Certificate, error) {
	return parse(der, Fingerprint{}, false)
}

// ParseWithDigest is Parse with a caller-attested SHA-256 of der: the
// certificate digest memo is adopted instead of recomputed, which removes
// the hash from the load path entirely. The caller must guarantee digest ==
// FingerprintBytes(der) — snapshot loaders meet this by storing the digest
// next to the DER under the same shard checksum. A wrong digest silently
// corrupts corpus deduplication, so there is no lazy verification here;
// integrity is the storage layer's contract.
func ParseWithDigest(der []byte, digest Fingerprint) (*Certificate, error) {
	return parse(der, digest, true)
}

func parse(der []byte, digest Fingerprint, haveDigest bool) (*Certificate, error) {
	top := *asn1der.NewDecoder(der)
	outer, err := top.SequenceV()
	if err != nil {
		return nil, parseErr("certificate", err)
	}
	if !top.Empty() {
		return nil, parseErr("certificate", errors.New("trailing bytes after certificate"))
	}

	cert := &Certificate{Raw: der}

	// tbsCertificate — capture raw bytes for signature verification.
	_, rawTBS, err := outer.ReadElement()
	if err != nil {
		return nil, parseErr("tbsCertificate", err)
	}
	cert.RawTBS = rawTBS
	tbsOuter := *asn1der.NewDecoder(rawTBS)
	tbs, err := tbsOuter.SequenceV()
	if err != nil {
		return nil, parseErr("tbsCertificate", err)
	}

	// signatureAlgorithm
	if err := parseAlgorithm(&outer); err != nil {
		return nil, parseErr("signatureAlgorithm", err)
	}
	// signatureValue
	sig, err := outer.BitString()
	if err != nil {
		return nil, parseErr("signatureValue", err)
	}
	cert.Signature = sig
	if !outer.Empty() {
		return nil, parseErr("certificate", errors.New("trailing bytes after signature"))
	}

	// --- TBS fields ---
	cert.Version = 1
	if tbs.PeekContextExplicit(0) {
		vd, err := tbs.ContextExplicitV(0)
		if err != nil {
			return nil, parseErr("version", err)
		}
		v, err := vd.Int()
		if err != nil {
			return nil, parseErr("version", err)
		}
		cert.Version = int(v) + 1
	}

	if cert.SerialNumber, err = tbs.BigInt(); err != nil {
		return nil, parseErr("serialNumber", err)
	}
	if err := parseAlgorithm(&tbs); err != nil {
		return nil, parseErr("signature", err)
	}
	if cert.Issuer, err = parseName(&tbs); err != nil {
		return nil, parseErr("issuer", err)
	}

	validity, err := tbs.SequenceV()
	if err != nil {
		return nil, parseErr("validity", err)
	}
	if tag, terr := validity.PeekTag(); terr == nil {
		cert.NotBeforeGeneralized = tag == asn1der.TagGeneralizedTime
	}
	if cert.NotBefore, err = validity.Time(); err != nil {
		return nil, parseErr("notBefore", err)
	}
	if tag, terr := validity.PeekTag(); terr == nil {
		cert.NotAfterGeneralized = tag == asn1der.TagGeneralizedTime
	}
	if cert.NotAfter, err = validity.Time(); err != nil {
		return nil, parseErr("notAfter", err)
	}

	if cert.Subject, err = parseName(&tbs); err != nil {
		return nil, parseErr("subject", err)
	}

	spki, err := tbs.SequenceV()
	if err != nil {
		return nil, parseErr("subjectPublicKeyInfo", err)
	}
	if err := parseAlgorithm(&spki); err != nil {
		return nil, parseErr("publicKeyAlgorithm", err)
	}
	keyBytes, err := spki.BitString()
	if err != nil {
		return nil, parseErr("subjectPublicKey", err)
	}
	if len(keyBytes) != ed25519.PublicKeySize {
		return nil, parseErr("subjectPublicKey", fmt.Errorf("bad key length %d", len(keyBytes)))
	}
	cert.PublicKey = ed25519.PublicKey(keyBytes)

	if tbs.PeekContextExplicit(3) {
		extWrap, err := tbs.ContextExplicitV(3)
		if err != nil {
			return nil, parseErr("extensions", err)
		}
		if err := parseExtensions(cert, &extWrap); err != nil {
			return nil, err
		}
	}

	if haveDigest {
		cert.adoptFingerprint(digest)
	} else {
		cert.MemoizeFingerprints()
	}
	return cert, nil
}

func parseAlgorithm(d *asn1der.Decoder) error {
	alg, err := d.SequenceV()
	if err != nil {
		return err
	}
	oid, err := alg.RawOID()
	if err != nil {
		return err
	}
	if !bytes.Equal(oid, rawOIDEd25519) {
		arcs, err := asn1der.ParseOID(oid)
		if err != nil {
			return fmt.Errorf("unsupported algorithm (undecodable OID)")
		}
		return fmt.Errorf("unsupported algorithm %s", OIDString(arcs))
	}
	return nil
}

func parseName(d *asn1der.Decoder) (Name, error) {
	var n Name
	rdns, err := d.SequenceV()
	if err != nil {
		return n, err
	}
	for !rdns.Empty() {
		set, err := rdns.SetV()
		if err != nil {
			return n, err
		}
		for !set.Empty() {
			atv, err := set.SequenceV()
			if err != nil {
				return n, err
			}
			oid, err := atv.RawOID()
			if err != nil {
				return n, err
			}
			val, err := atv.String()
			if err != nil {
				return n, err
			}
			switch {
			case bytes.Equal(oid, rawOIDCommonName):
				n.CommonName = val
			case bytes.Equal(oid, rawOIDCountry):
				n.Country = val
			case bytes.Equal(oid, rawOIDLocality):
				n.Locality = val
			case bytes.Equal(oid, rawOIDOrganization):
				n.Organization = val
			case bytes.Equal(oid, rawOIDOrganizationUnit):
				n.OrganizationalUnit = val
			}
		}
	}
	return n, nil
}

// countTagged counts the TLV elements remaining in d that carry tag (tag 0
// counts every element), without consuming d. The extension parsers use it
// to size the SAN/policy slices exactly, so each populated field costs one
// allocation instead of an append growth chain.
func countTagged(d *asn1der.Decoder, tag byte) int {
	c := *asn1der.NewDecoder(d.Remaining())
	n := 0
	for !c.Empty() {
		t, _, err := c.ReadAny()
		if err != nil {
			return n
		}
		if tag == 0 || t == tag {
			n++
		}
	}
	return n
}

func parseExtensions(cert *Certificate, wrap *asn1der.Decoder) error {
	exts, err := wrap.SequenceV()
	if err != nil {
		return parseErr("extensions", err)
	}
	for !exts.Empty() {
		ext, err := exts.SequenceV()
		if err != nil {
			return parseErr("extension", err)
		}
		oid, err := ext.RawOID()
		if err != nil {
			return parseErr("extension oid", err)
		}
		// optional critical flag
		if tag, err := ext.PeekTag(); err == nil && tag == asn1der.TagBoolean {
			if _, err := ext.Bool(); err != nil {
				return parseErr("extension critical", err)
			}
		}
		value, err := ext.OctetString()
		if err != nil {
			return parseErr("extension value", err)
		}
		if err := parseExtensionValue(cert, oid, value); err != nil {
			return err
		}
	}
	return nil
}

func parseExtensionValue(cert *Certificate, oid, value []byte) error {
	d := *asn1der.NewDecoder(value)
	switch {
	case bytes.Equal(oid, rawOIDExtBasicConstraints):
		bc, err := d.SequenceV()
		if err != nil {
			return parseErr("basicConstraints", err)
		}
		cert.BasicConstraintsValid = true
		if !bc.Empty() {
			isCA, err := bc.Bool()
			if err != nil {
				return parseErr("basicConstraints", err)
			}
			cert.IsCA = isCA
		}
	case bytes.Equal(oid, rawOIDExtKeyUsage):
		bits, err := d.BitString()
		if err != nil {
			return parseErr("keyUsage", err)
		}
		if len(bits) > 0 {
			cert.KeyUsage = int(bits[0])
		}
	case bytes.Equal(oid, rawOIDExtSubjectKeyID):
		id, err := d.OctetString()
		if err != nil {
			return parseErr("subjectKeyID", err)
		}
		cert.SubjectKeyID = id
	case bytes.Equal(oid, rawOIDExtAuthorityKeyID):
		aki, err := d.SequenceV()
		if err != nil {
			return parseErr("authorityKeyID", err)
		}
		for !aki.Empty() {
			tag, content, err := aki.ReadAny()
			if err != nil {
				return parseErr("authorityKeyID", err)
			}
			if tag == byte(asn1der.ClassContextSpecific|0) {
				cert.AuthorityKeyID = content
			}
		}
	case bytes.Equal(oid, rawOIDExtSAN):
		san, err := d.SequenceV()
		if err != nil {
			return parseErr("subjectAltName", err)
		}
		// Only pre-size on the first SAN extension: a certificate carrying
		// the extension twice (strict parsers reject this; we are the lenient
		// measurement parser) must accumulate names from both, not let the
		// second silently overwrite the first — linters need the full list.
		if n := countTagged(&san, byte(asn1der.ClassContextSpecific|2)); n > 0 && cert.DNSNames == nil {
			cert.DNSNames = make([]string, 0, n)
		}
		if n := countTagged(&san, byte(asn1der.ClassContextSpecific|7)); n > 0 && cert.IPAddresses == nil {
			cert.IPAddresses = make([]net.IP, 0, n)
		}
		for !san.Empty() {
			tag, content, err := san.ReadAny()
			if err != nil {
				return parseErr("subjectAltName", err)
			}
			switch tag {
			case byte(asn1der.ClassContextSpecific | 2):
				cert.DNSNames = append(cert.DNSNames, string(content))
			case byte(asn1der.ClassContextSpecific | 7):
				cert.IPAddresses = append(cert.IPAddresses, net.IP(content))
			}
		}
	case bytes.Equal(oid, rawOIDExtCRLDistribution):
		urls, err := parseCRLDistribution(&d)
		if err != nil {
			return err
		}
		cert.CRLDistributionPoints = urls
	case bytes.Equal(oid, rawOIDExtAIA):
		aia, err := d.SequenceV()
		if err != nil {
			return parseErr("authorityInfoAccess", err)
		}
		for !aia.Empty() {
			desc, err := aia.SequenceV()
			if err != nil {
				return parseErr("accessDescription", err)
			}
			method, err := desc.RawOID()
			if err != nil {
				return parseErr("accessMethod", err)
			}
			tag, content, err := desc.ReadAny()
			if err != nil {
				return parseErr("accessLocation", err)
			}
			if tag != byte(asn1der.ClassContextSpecific|6) {
				continue
			}
			switch {
			case bytes.Equal(method, rawOIDAIAOCSP):
				cert.OCSPServer = append(cert.OCSPServer, string(content))
			case bytes.Equal(method, rawOIDAIACAIssuers):
				cert.IssuingCertificateURL = append(cert.IssuingCertificateURL, string(content))
			}
		}
	case bytes.Equal(oid, rawOIDExtCertPolicies):
		pols, err := d.SequenceV()
		if err != nil {
			return parseErr("certificatePolicies", err)
		}
		if n := countTagged(&pols, 0); n > 0 {
			cert.PolicyOIDs = make([][]int, 0, n)
		}
		for !pols.Empty() {
			pol, err := pols.SequenceV()
			if err != nil {
				return parseErr("policyInformation", err)
			}
			rawPOID, err := pol.RawOID()
			if err != nil {
				return parseErr("policyIdentifier", err)
			}
			pOID, err := asn1der.ParseOID(rawPOID)
			if err != nil {
				return parseErr("policyIdentifier", err)
			}
			cert.PolicyOIDs = append(cert.PolicyOIDs, pOID)
		}
	}
	// Unknown extensions are skipped, matching openssl's tolerance.
	return nil
}

func parseCRLDistribution(d *asn1der.Decoder) ([]string, error) {
	var urls []string
	points, err := d.SequenceV()
	if err != nil {
		return nil, parseErr("crlDistributionPoints", err)
	}
	if n := countTagged(&points, 0); n > 0 {
		urls = make([]string, 0, n)
	}
	for !points.Empty() {
		point, err := points.SequenceV()
		if err != nil {
			return nil, parseErr("distributionPoint", err)
		}
		for !point.Empty() {
			tag, content, err := point.ReadAny()
			if err != nil {
				return nil, parseErr("distributionPoint", err)
			}
			if tag != byte(asn1der.ClassContextSpecific|0x20|0) { // [0] constructed distributionPointName
				continue
			}
			dpn := *asn1der.NewDecoder(content)
			for !dpn.Empty() {
				t2, c2, err := dpn.ReadAny()
				if err != nil {
					return nil, parseErr("distributionPointName", err)
				}
				if t2 != byte(asn1der.ClassContextSpecific|0x20|0) { // [0] constructed fullName
					continue
				}
				names := *asn1der.NewDecoder(c2)
				for !names.Empty() {
					t3, c3, err := names.ReadAny()
					if err != nil {
						return nil, parseErr("fullName", err)
					}
					if t3 == byte(asn1der.ClassContextSpecific|6) { // URI
						urls = append(urls, string(c3))
					}
				}
			}
		}
	}
	if len(urls) == 0 {
		return nil, nil // keep the "absent" representation nil, as before
	}
	return urls, nil
}
