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
	"slices"
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

// Encoder incrementally builds a DER document in one buffer. Values are
// appended in order; Bytes returns the accumulated encoding. A constructed
// value is built in place: its tag and a one-byte length placeholder go
// first, the build callback appends the contents to the same buffer, and the
// length is back-patched once the contents are known, moving them up only
// when the length needs the long form (128 bytes or more). Primitive values
// append their contents directly, without an intermediate slice. The zero
// value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded document. The returned slice aliases the
// encoder's buffer; callers that keep encoding must copy it first. Inside a
// build callback it is the whole document so far, the enclosing values'
// unpatched headers included.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far. Inside a build callback
// it is an offset into the whole document, so e.Bytes()[start:] after a
// nested value returns is that value's complete encoding.
func (e *Encoder) Len() int { return len(e.buf) }

// Grow makes room for at least n more bytes without another allocation.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Raw appends pre-encoded DER bytes verbatim.
func (e *Encoder) Raw(der []byte) { e.buf = append(e.buf, der...) }

func (e *Encoder) tlv(tag byte, content []byte) {
	e.buf = append(e.buf, tag)
	e.length(len(content))
	e.buf = append(e.buf, content...)
}

func (e *Encoder) stringTLV(tag byte, s string) {
	e.buf = append(e.buf, tag)
	e.length(len(s))
	e.buf = append(e.buf, s...)
}

func (e *Encoder) length(n int) { e.buf = appendLength(e.buf, n) }

// appendLength appends the DER length octets of n: one for n < 128, else
// 0x80|k followed by n in k big-endian octets.
func appendLength(dst []byte, n int) []byte {
	if n < 0x80 {
		return append(dst, byte(n))
	}
	k := 4
	switch {
	case n <= 0xff:
		k = 1
	case n <= 0xffff:
		k = 2
	case n <= 0xffffff:
		k = 3
	}
	dst = append(dst, 0x80|byte(k))
	for i := k - 1; i >= 0; i-- {
		dst = append(dst, byte(n>>(8*i)))
	}
	return dst
}

// begin appends tag and a one-byte length placeholder and returns the offset
// at which the value's contents start.
func (e *Encoder) begin(tag byte) int {
	e.buf = append(e.buf, tag, 0)
	return len(e.buf)
}

// end back-patches the length of the value whose contents started at start.
// A short-form length fills the placeholder; a long form needs more
// octets, so the contents move up by that many first.
func (e *Encoder) end(start int) {
	n := len(e.buf) - start
	var octets [5]byte
	l := appendLength(octets[:0], n)
	if extra := len(l) - 1; extra > 0 {
		e.buf = append(e.buf, make([]byte, extra)...)
		copy(e.buf[start+extra:], e.buf[start:start+n])
	}
	copy(e.buf[start-1:], l)
}

// Bool appends a BOOLEAN (DER: 0xff for true, 0x00 for false).
func (e *Encoder) Bool(v bool) {
	b := byte(0x00)
	if v {
		b = 0xff
	}
	e.buf = append(e.buf, TagBoolean, 1, b)
}

// Int appends an INTEGER with the minimal two's-complement encoding: the
// eight bytes of v, less every leading byte that only repeats the sign of
// the byte after it.
func (e *Encoder) Int(v int64) {
	n := 8
	for ; n > 1; n-- {
		top, next := byte(v>>(8*(n-1))), byte(v>>(8*(n-2)))
		if !(top == 0x00 && next&0x80 == 0) && !(top == 0xff && next&0x80 != 0) {
			break
		}
	}
	e.buf = append(e.buf, TagInteger, byte(n))
	for i := n - 1; i >= 0; i-- {
		e.buf = append(e.buf, byte(v>>(8*i)))
	}
}

// BigInt appends an arbitrary-precision INTEGER. A non-negative value is
// written straight into the buffer: BitLen/8+1 bytes hold its magnitude plus
// the leading zero a set top bit needs.
func (e *Encoder) BigInt(v *big.Int) {
	if v.Sign() < 0 {
		e.tlv(TagInteger, negativeIntContents(v))
		return
	}
	n := v.BitLen()/8 + 1
	e.buf = append(e.buf, TagInteger)
	e.length(n)
	e.buf = append(e.buf, make([]byte, n)...)
	v.FillBytes(e.buf[len(e.buf)-n:])
}

// negativeIntContents returns the minimal two's-complement contents of a
// negative INTEGER.
func negativeIntContents(v *big.Int) []byte {
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
	e.buf = append(e.buf, TagBitString)
	e.length(len(b) + 1)
	e.buf = append(e.buf, 0)
	e.buf = append(e.buf, b...)
}

// OctetString appends an OCTET STRING.
func (e *Encoder) OctetString(b []byte) { e.tlv(TagOctetString, b) }

// OctetStringOf appends an OCTET STRING whose contents are the DER that
// build produces, the way an X.509 extension wraps its value.
func (e *Encoder) OctetStringOf(build func(*Encoder)) {
	e.constructedTLV(TagOctetString, build)
}

// Null appends a NULL value.
func (e *Encoder) Null() { e.buf = append(e.buf, TagNull, 0) }

// OID appends an OBJECT IDENTIFIER. Like OIDContents, it panics on an
// invalid arc list.
func (e *Encoder) OID(oid []int) {
	start := e.begin(TagOID)
	e.buf = appendOID(e.buf, oid)
	e.end(start)
}

// OIDContents returns an OBJECT IDENTIFIER's DER content bytes, without tag
// and length: the first two arcs packed into one value, then every value in
// base 128. It panics on OIDs with fewer than two arcs or arcs that violate
// the X.660 first-two-arc constraints, since OIDs in this codebase are
// compile-time constants.
func OIDContents(oid []int) []byte { return appendOID(nil, oid) }

func appendOID(dst []byte, oid []int) []byte {
	if len(oid) < 2 {
		panic(fmt.Sprintf("asn1der: OID needs at least 2 arcs, got %d", len(oid)))
	}
	if oid[0] > 2 || (oid[0] < 2 && oid[1] >= 40) || oid[0] < 0 || oid[1] < 0 {
		panic(fmt.Sprintf("asn1der: invalid OID prefix %d.%d", oid[0], oid[1]))
	}
	dst = encodeBase128(dst, oid[0]*40+oid[1])
	for _, arc := range oid[2:] {
		if arc < 0 {
			panic(fmt.Sprintf("asn1der: negative OID arc %d", arc))
		}
		dst = encodeBase128(dst, arc)
	}
	return dst
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
func (e *Encoder) UTF8String(s string) { e.stringTLV(TagUTF8String, s) }

// PrintableString appends a PrintableString. The caller is responsible for
// the character-set restriction; X.509 consumers in this repo treat it as
// opaque bytes.
func (e *Encoder) PrintableString(s string) { e.stringTLV(TagPrintableString, s) }

// IA5String appends an IA5String.
func (e *Encoder) IA5String(s string) { e.stringTLV(TagIA5String, s) }

// Time appends a UTCTime for years in [1950, 2050) and a GeneralizedTime
// otherwise, per RFC 5280 §4.1.2.5. Certificates in the studied corpus carry
// NotAfter dates beyond the year 3000, which only GeneralizedTime can encode.
func (e *Encoder) Time(t time.Time) {
	t = t.UTC()
	if y := t.Year(); y >= 1950 && y < 2050 {
		e.timeTLV(TagUTCTime, t, "060102150405Z")
		return
	}
	e.GeneralizedTime(t)
}

// GeneralizedTime appends a GeneralizedTime regardless of year.
func (e *Encoder) GeneralizedTime(t time.Time) {
	e.timeTLV(TagGeneralizedTime, t.UTC(), "20060102150405Z")
}

func (e *Encoder) timeTLV(tag byte, t time.Time, layout string) {
	start := e.begin(tag)
	e.buf = t.AppendFormat(e.buf, layout)
	e.end(start)
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
// given raw contents (used for SAN iPAddress entries).
func (e *Encoder) ContextImplicitPrimitive(n int, content []byte) {
	e.tlv(byte(ClassContextSpecific|n), content)
}

// ContextImplicitString is ContextImplicitPrimitive with a string's bytes as
// the contents (SAN dNSName and URI entries).
func (e *Encoder) ContextImplicitString(n int, s string) {
	e.stringTLV(byte(ClassContextSpecific|n), s)
}

// ContextImplicitConstructed appends a constructed implicit [n] tag.
func (e *Encoder) ContextImplicitConstructed(n int, build func(*Encoder)) {
	e.constructedTLV(byte(ClassContextSpecific|constructed|n), build)
}

// constructedTLV appends tag, then the contents build appends to this same
// encoder, then back-patches the length.
func (e *Encoder) constructedTLV(tag byte, build func(*Encoder)) {
	start := e.begin(tag)
	build(e)
	e.end(start)
}
