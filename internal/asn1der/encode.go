// Package asn1der implements the subset of ASN.1 DER (Distinguished Encoding
// Rules) needed to serialise and parse X.509 certificates from scratch:
// definite-length TLV framing, INTEGER, BIT STRING, OCTET STRING, NULL,
// OBJECT IDENTIFIER, string types, UTCTime/GeneralizedTime, SEQUENCE, SET and
// context-specific tags.
//
// The package deliberately does not use encoding/asn1 so that the repository
// contains a complete, self-contained certificate codec (the paper's tooling
// equivalent is zcrypto's forked X.509 stack).
package asn1der

import (
	"fmt"
	"math/big"
	"time"
)

// ASN.1 class bits.
const (
	ClassUniversal       = 0x00
	ClassApplication     = 0x40
	ClassContextSpecific = 0x80
	ClassPrivate         = 0xc0
)

// Universal tag numbers used by X.509.
const (
	TagBoolean         = 0x01
	TagInteger         = 0x02
	TagBitString       = 0x03
	TagOctetString     = 0x04
	TagNull            = 0x05
	TagOID             = 0x06
	TagUTF8String      = 0x0c
	TagSequence        = 0x10
	TagSet             = 0x11
	TagPrintableString = 0x13
	TagIA5String       = 0x16
	TagUTCTime         = 0x17
	TagGeneralizedTime = 0x18
)

const constructed = 0x20

// Encoder incrementally builds a DER document. Values are appended in order;
// Bytes returns the accumulated encoding. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded document. The returned slice aliases the
// encoder's buffer; callers that keep encoding must copy it first.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Raw appends pre-encoded DER bytes verbatim.
func (e *Encoder) Raw(der []byte) { e.buf = append(e.buf, der...) }

func (e *Encoder) tlv(tag byte, content []byte) {
	e.buf = append(e.buf, tag)
	e.length(len(content))
	e.buf = append(e.buf, content...)
}

func (e *Encoder) length(n int) {
	switch {
	case n < 0x80:
		e.buf = append(e.buf, byte(n))
	case n <= 0xff:
		e.buf = append(e.buf, 0x81, byte(n))
	case n <= 0xffff:
		e.buf = append(e.buf, 0x82, byte(n>>8), byte(n))
	case n <= 0xffffff:
		e.buf = append(e.buf, 0x83, byte(n>>16), byte(n>>8), byte(n))
	default:
		e.buf = append(e.buf, 0x84, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
}

// Bool appends a BOOLEAN (DER: 0xff for true, 0x00 for false).
func (e *Encoder) Bool(v bool) {
	b := byte(0x00)
	if v {
		b = 0xff
	}
	e.tlv(TagBoolean, []byte{b})
}

// Int appends an INTEGER with the minimal two's-complement encoding.
func (e *Encoder) Int(v int64) {
	e.BigInt(big.NewInt(v))
}

// BigInt appends an arbitrary-precision INTEGER.
func (e *Encoder) BigInt(v *big.Int) {
	e.tlv(TagInteger, intContents(v))
}

func intContents(v *big.Int) []byte {
	if v.Sign() == 0 {
		return []byte{0}
	}
	if v.Sign() > 0 {
		b := v.Bytes()
		if b[0]&0x80 != 0 {
			return append([]byte{0}, b...)
		}
		return b
	}
	// Two's complement for negatives: find the minimal byte length.
	n := (v.BitLen() / 8) + 1
	for {
		mod := new(big.Int).Lsh(big.NewInt(1), uint(8*n))
		tc := new(big.Int).Add(v, mod)
		b := tc.Bytes()
		for len(b) < n {
			b = append([]byte{0}, b...)
		}
		if b[0]&0x80 != 0 {
			// Check minimality: dropping the first byte must change sign.
			if n == 1 || b[0] != 0xff || len(b) < 2 || b[1]&0x80 == 0 {
				return b
			}
			n--
			continue
		}
		n++
	}
}

// BitString appends a BIT STRING with zero unused bits (the only form X.509
// key and signature fields use).
func (e *Encoder) BitString(b []byte) {
	content := make([]byte, 0, len(b)+1)
	content = append(content, 0)
	content = append(content, b...)
	e.tlv(TagBitString, content)
}

// OctetString appends an OCTET STRING.
func (e *Encoder) OctetString(b []byte) { e.tlv(TagOctetString, b) }

// Null appends a NULL value.
func (e *Encoder) Null() { e.tlv(TagNull, nil) }

// OID appends an OBJECT IDENTIFIER. Like OIDContents, it panics on an
// invalid arc list.
func (e *Encoder) OID(oid []int) { e.tlv(TagOID, OIDContents(oid)) }

// OIDContents returns an OBJECT IDENTIFIER's DER content bytes, without tag
// and length: the first two arcs packed into one value, then every value in
// base 128. It panics on OIDs with fewer than two arcs or arcs that violate
// the X.660 first-two-arc constraints, since OIDs in this codebase are
// compile-time constants.
func OIDContents(oid []int) []byte {
	if len(oid) < 2 {
		panic(fmt.Sprintf("asn1der: OID needs at least 2 arcs, got %d", len(oid)))
	}
	if oid[0] > 2 || (oid[0] < 2 && oid[1] >= 40) || oid[0] < 0 || oid[1] < 0 {
		panic(fmt.Sprintf("asn1der: invalid OID prefix %d.%d", oid[0], oid[1]))
	}
	out := encodeBase128(nil, oid[0]*40+oid[1])
	for _, arc := range oid[2:] {
		if arc < 0 {
			panic(fmt.Sprintf("asn1der: negative OID arc %d", arc))
		}
		out = encodeBase128(out, arc)
	}
	return out
}

func encodeBase128(dst []byte, v int) []byte {
	// Emit 7-bit groups, most significant first, continuation bit on all but last.
	var tmp [5]byte
	i := len(tmp)
	tmp[i-1] = byte(v & 0x7f)
	v >>= 7
	i--
	for v > 0 {
		i--
		tmp[i] = byte(v&0x7f) | 0x80
		v >>= 7
	}
	return append(dst, tmp[i:]...)
}

// UTF8String appends a UTF8String.
func (e *Encoder) UTF8String(s string) { e.tlv(TagUTF8String, []byte(s)) }

// PrintableString appends a PrintableString. The caller is responsible for
// the character-set restriction; X.509 consumers in this repo treat it as
// opaque bytes.
func (e *Encoder) PrintableString(s string) { e.tlv(TagPrintableString, []byte(s)) }

// IA5String appends an IA5String.
func (e *Encoder) IA5String(s string) { e.tlv(TagIA5String, []byte(s)) }

// Time appends a UTCTime for years in [1950, 2050) and a GeneralizedTime
// otherwise, per RFC 5280 §4.1.2.5. Certificates in the studied corpus carry
// NotAfter dates beyond the year 3000, which only GeneralizedTime can encode.
func (e *Encoder) Time(t time.Time) {
	t = t.UTC()
	if y := t.Year(); y >= 1950 && y < 2050 {
		e.tlv(TagUTCTime, []byte(t.Format("060102150405Z")))
		return
	}
	e.GeneralizedTime(t)
}

// GeneralizedTime appends a GeneralizedTime regardless of year.
func (e *Encoder) GeneralizedTime(t time.Time) {
	t = t.UTC()
	e.tlv(TagGeneralizedTime, []byte(t.Format("20060102150405Z")))
}

// Sequence appends a SEQUENCE whose contents are produced by build.
func (e *Encoder) Sequence(build func(*Encoder)) {
	e.constructedTLV(TagSequence|constructed, build)
}

// Set appends a SET whose contents are produced by build. DER requires SET OF
// contents to be sorted; X.509 RDN sets in this repo are single-element, so
// no sorting pass is needed.
func (e *Encoder) Set(build func(*Encoder)) {
	e.constructedTLV(TagSet|constructed, build)
}

// ContextExplicit appends an explicit [n] tag wrapping the built contents.
func (e *Encoder) ContextExplicit(n int, build func(*Encoder)) {
	e.constructedTLV(byte(ClassContextSpecific|constructed|n), build)
}

// ContextImplicitPrimitive appends a primitive implicit [n] tag with the
// given raw contents (used for SAN dNSName/iPAddress entries).
func (e *Encoder) ContextImplicitPrimitive(n int, content []byte) {
	e.tlv(byte(ClassContextSpecific|n), content)
}

// ContextImplicitConstructed appends a constructed implicit [n] tag.
func (e *Encoder) ContextImplicitConstructed(n int, build func(*Encoder)) {
	e.constructedTLV(byte(ClassContextSpecific|constructed|n), build)
}

func (e *Encoder) constructedTLV(tag byte, build func(*Encoder)) {
	var inner Encoder
	build(&inner)
	e.tlv(tag, inner.buf)
}
