package x509lite

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"net"
	"sync/atomic"
	"time"
)

// Name is the subset of an X.509 distinguished name the studied corpus
// exercises. Only populated attributes are encoded, in RFC 4514-recommended
// order (C, L, O, OU, CN).
type Name struct {
	Country            string
	Locality           string
	Organization       string
	OrganizationalUnit string
	CommonName         string
}

// String renders the name like openssl's oneline format, e.g.
// "C=DE, O=AVM, CN=fritz.box". An entirely empty name renders as "".
func (n Name) String() string {
	var buf [64]byte
	return string(n.AppendTo(buf[:0]))
}

// AppendTo appends the name, rendered as String renders it, to dst.
func (n Name) AppendTo(dst []byte) []byte {
	start := len(dst)
	for _, attr := range [...]struct{ prefix, v string }{
		{"C", n.Country},
		{"L", n.Locality},
		{"O", n.Organization},
		{"OU", n.OrganizationalUnit},
		{"CN", n.CommonName},
	} {
		if attr.v == "" {
			continue
		}
		if len(dst) > start {
			dst = append(dst, ", "...)
		}
		dst = append(dst, attr.prefix...)
		dst = append(dst, '=')
		dst = append(dst, attr.v...)
	}
	return dst
}

// Empty reports whether no attribute is populated — the corpus contains
// 925k certificates issued under a completely empty name.
func (n Name) Empty() bool {
	return n == Name{}
}

// LooksLikeIPv4 reports whether s is written as a dotted quad: four
// dot-separated groups of one to three decimal digits. It checks the form
// only, which is what the analysis, linking and lint rules on IP-formatted
// Common Names ask.
func LooksLikeIPv4(s string) bool {
	groups, digits := 1, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '.':
			if digits == 0 {
				return false
			}
			groups++
			digits = 0
		case c >= '0' && c <= '9':
			if digits++; digits > 3 {
				return false
			}
		default:
			return false
		}
	}
	return groups == 4 && digits > 0
}

// Fingerprint is the SHA-256 digest of a certificate or key, the identity
// used for deduplication across the scan corpus.
type Fingerprint [32]byte

// String returns the lowercase hex form.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// FingerprintBytes hashes arbitrary bytes into a Fingerprint.
func FingerprintBytes(b []byte) Fingerprint { return sha256.Sum256(b) }

// Certificate is a parsed X.509 certificate. All fields are populated by
// Parse; Raw and RawTBS retain the exact DER so signatures stay verifiable
// and fingerprints stable.
type Certificate struct {
	Raw    []byte // complete DER encoding
	RawTBS []byte // DER of the to-be-signed structure

	// Version is the X.509 version as written on the wire plus one
	// (1 for v1, 3 for v3). The corpus contains nonsense versions (2, 4,
	// 13); Parse preserves them for the classifier to reject.
	Version      int
	SerialNumber *big.Int
	Issuer       Name
	Subject      Name
	NotBefore    time.Time
	NotAfter     time.Time

	// NotBeforeGeneralized and NotAfterGeneralized record whether each
	// validity time arrived DER-encoded as GeneralizedTime (true) or UTCTime
	// (false). RFC 5280 §4.1.2.5 mandates UTCTime through 2049 and
	// GeneralizedTime from 2050 on; device firmware gets this wrong, and
	// certlint's time_encoding_mismatch lint judges the rule from these bits.
	NotBeforeGeneralized bool
	NotAfterGeneralized  bool

	PublicKey ed25519.PublicKey
	Signature []byte

	// v3 extensions; zero values mean "absent".
	IsCA                  bool
	BasicConstraintsValid bool
	DNSNames              []string
	IPAddresses           []net.IP
	SubjectKeyID          []byte
	AuthorityKeyID        []byte
	CRLDistributionPoints []string
	IssuingCertificateURL []string // AIA caIssuers
	OCSPServer            []string // AIA OCSP responders
	PolicyOIDs            [][]int
	KeyUsage              int

	// Memoized digests. Parse fills these once so the corpus-wide hot paths
	// (Intern, truststore chain lookups, key-sharing grouping) never redo
	// SHA-256 work; a zero-value Certificate built by hand still answers
	// Fingerprint correctly via the compute-on-the-fly fallback. The digest
	// memo is written only before the certificate is shared (Parse or the
	// snapshot loader), so concurrent readers need no synchronisation.
	fp, pkfp Fingerprint
	memoized bool

	// selfSig is the one memo written lazily, after the certificate may be
	// shared: SelfSigned's verdict, selfSigUnknown until the first call.
	// Being atomic it is race-free; see SelfSignedVerdict for the contract.
	selfSig atomic.Uint32
}

// SelfSigned verdict states held in Certificate.selfSig.
const (
	selfSigUnknown uint32 = iota
	selfSigNo
	selfSigYes
)

// Fingerprint returns the SHA-256 of the full DER encoding. For parsed
// certificates this is a memo lookup; hand-constructed Certificate values
// fall back to hashing Raw on each call.
func (c *Certificate) Fingerprint() Fingerprint {
	if c.memoized {
		return c.fp
	}
	return FingerprintBytes(c.Raw)
}

// PublicKeyFingerprint returns the SHA-256 of the subject public key bytes;
// the paper's key-sharing analyses group certificates by exactly this.
func (c *Certificate) PublicKeyFingerprint() Fingerprint {
	if c.memoized {
		return c.pkfp
	}
	return FingerprintBytes(c.PublicKey)
}

// MemoizeFingerprints computes and caches both digests. Parse calls it on
// every certificate it returns; callers constructing Certificate values by
// hand may call it once before sharing the value across goroutines. It must
// not be called concurrently with readers.
func (c *Certificate) MemoizeFingerprints() {
	c.fp = FingerprintBytes(c.Raw)
	c.pkfp = FingerprintBytes(c.PublicKey)
	c.memoized = true
}

// adoptFingerprint installs a caller-attested certificate digest without
// rehashing Raw; the key digest is still computed (hashing 32 key bytes is
// cheap). ParseWithDigest is the doorway; see its contract.
func (c *Certificate) adoptFingerprint(fp Fingerprint) {
	c.fp = fp
	c.pkfp = FingerprintBytes(c.PublicKey)
	c.memoized = true
}

// ValidityDays returns NotAfter − NotBefore in days. It is computed from
// Unix seconds rather than time.Duration because the corpus contains
// NotAfter dates past the year 3000, whose spans overflow a Duration
// (~292-year cap); it is negative for the 5.38% of invalid certs whose
// NotAfter precedes NotBefore.
func (c *Certificate) ValidityDays() float64 {
	return float64(c.NotAfter.Unix()-c.NotBefore.Unix()) / 86400
}

// SelfIssued reports whether issuer and subject names match — a necessary
// but not sufficient condition for self-signed (openssl's error 19 subtlety:
// a cert can be self-signed under different names, which only a signature
// check with its own key reveals).
func (c *Certificate) SelfIssued() bool { return c.Issuer == c.Subject }

// SelfSigned reports whether the certificate verifies under its own public
// key, regardless of the names. Only the first call pays the Ed25519 verify;
// later calls, from any goroutine, read the stored verdict.
func (c *Certificate) SelfSigned() bool {
	ok, _ := c.SelfSignedVerdict()
	return ok
}

// SelfSignedVerdict is SelfSigned that also reports whether this call ran
// the signature check (checked) rather than reading a stored verdict. Work
// counters use it to charge each check to the stage that paid for it.
//
// The verdict is a pure function of PublicKey, RawTBS and Signature, which
// must not change after the first call. Concurrent first calls are
// race-free: each may run the check and store the same verdict, so a caller
// that needs each certificate checked exactly once must not race two
// goroutines on one cold certificate (the pipeline's stages visit each
// certificate from one goroutine).
func (c *Certificate) SelfSignedVerdict() (selfSigned, checked bool) {
	switch c.selfSig.Load() {
	case selfSigYes:
		return true, false
	case selfSigNo:
		return false, false
	}
	selfSigned = c.CheckSignatureFrom(c) == nil
	verdict := selfSigNo
	if selfSigned {
		verdict = selfSigYes
	}
	c.selfSig.Store(verdict)
	return selfSigned, true
}

// CheckSignatureFrom verifies that parent's key signed c.
func (c *Certificate) CheckSignatureFrom(parent *Certificate) error {
	if len(parent.PublicKey) != ed25519.PublicKeySize {
		return &VerifyError{Reason: "parent key malformed"}
	}
	if len(c.Signature) != ed25519.SignatureSize {
		return &VerifyError{Reason: "signature malformed"}
	}
	if !ed25519.Verify(parent.PublicKey, c.RawTBS, c.Signature) {
		return &VerifyError{Reason: "signature verification failed"}
	}
	return nil
}

// VerifyError reports a failed signature or chain check.
type VerifyError struct {
	Reason string
}

func (e *VerifyError) Error() string { return "x509lite: " + e.Reason }
