package asn1der

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSetRoundTrip(t *testing.T) {
	var e Encoder
	e.Set(func(e *Encoder) {
		e.Int(9)
	})
	set, err := NewDecoder(e.Bytes()).Set()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := set.Int(); err != nil || v != 9 {
		t.Fatalf("set contents: %d, %v", v, err)
	}
}

func TestContextImplicitConstructed(t *testing.T) {
	var e Encoder
	e.ContextImplicitConstructed(3, func(e *Encoder) {
		e.OctetString([]byte("inner"))
	})
	tag, content, err := NewDecoder(e.Bytes()).ReadAny()
	if err != nil {
		t.Fatal(err)
	}
	if tag != byte(ClassContextSpecific|0x20|3) {
		t.Fatalf("tag = 0x%02x", tag)
	}
	got, err := NewDecoder(content).OctetString()
	if err != nil || string(got) != "inner" {
		t.Fatalf("inner = %q, %v", got, err)
	}
}

func TestRemainingAndOffset(t *testing.T) {
	var e Encoder
	e.Int(1)
	e.Int(2)
	d := NewDecoder(e.Bytes())
	if d.Offset() != 0 {
		t.Errorf("initial offset = %d", d.Offset())
	}
	if _, err := d.Int(); err != nil {
		t.Fatal(err)
	}
	if d.Offset() != 3 { // 02 01 01
		t.Errorf("offset after first int = %d", d.Offset())
	}
	if len(d.Remaining()) != 3 {
		t.Errorf("remaining = %d bytes", len(d.Remaining()))
	}
}

func TestRawAppends(t *testing.T) {
	var a, b Encoder
	a.Int(7)
	b.Raw(a.Bytes())
	b.Int(8)
	d := NewDecoder(b.Bytes())
	v1, _ := d.Int()
	v2, _ := d.Int()
	if v1 != 7 || v2 != 8 {
		t.Errorf("raw splice decoded %d, %d", v1, v2)
	}
}

func TestEncoderLen(t *testing.T) {
	var e Encoder
	if e.Len() != 0 {
		t.Error("fresh encoder not empty")
	}
	e.Null()
	if e.Len() != 2 {
		t.Errorf("Len after Null = %d", e.Len())
	}
}

func TestBoolDERFormsAccepted(t *testing.T) {
	// DER encoders must emit 0xff for true, but decoders in this codebase
	// accept any non-zero byte (openssl tolerance).
	d := NewDecoder([]byte{TagBoolean, 1, 0x01})
	v, err := d.Bool()
	if err != nil || !v {
		t.Errorf("lenient boolean: %v, %v", v, err)
	}
}

func TestNestedSequenceOffsets(t *testing.T) {
	// Errors deep inside nested structures must carry absolute offsets.
	var e Encoder
	e.Sequence(func(e *Encoder) {
		e.Sequence(func(e *Encoder) {
			e.Int(1)
		})
	})
	outer, err := NewDecoder(e.Bytes()).Sequence()
	if err != nil {
		t.Fatal(err)
	}
	inner, err := outer.Sequence()
	if err != nil {
		t.Fatal(err)
	}
	if inner.Offset() != 4 { // 30 xx 30 xx <- contents start at 4
		t.Errorf("inner offset = %d", inner.Offset())
	}
}

// Property: OID encode/decode round-trips for arbitrary valid arc lists.
func TestOIDRoundTripProperty(t *testing.T) {
	f := func(first uint8, second uint8, rest []uint16) bool {
		oid := []int{int(first % 3), int(second % 40)}
		if oid[0] == 2 {
			oid[1] = int(second) // arc 2 allows >= 40
		}
		for _, r := range rest {
			oid = append(oid, int(r))
		}
		var e Encoder
		e.OID(oid)
		back, err := NewDecoder(e.Bytes()).OID()
		if err != nil || len(back) != len(oid) {
			return false
		}
		for i := range oid {
			if back[i] != oid[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: octet strings of any content and length round-trip.
func TestOctetStringRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		var e Encoder
		e.OctetString(payload)
		got, err := NewDecoder(e.Bytes()).OctetString()
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Constructed values are built in place and their lengths back-patched, the
// contents moving up when the length needs the long form. At every
// length-form boundary, nested two deep and followed by a sibling, the
// result must equal DER assembled by hand.
func TestBackPatchAtLengthBoundaries(t *testing.T) {
	header := map[int][]byte{ // SEQUENCE tag and length, by content length
		127:   {0x30, 0x7f},
		128:   {0x30, 0x81, 0x80},
		255:   {0x30, 0x81, 0xff},
		256:   {0x30, 0x82, 0x01, 0x00},
		65535: {0x30, 0x82, 0xff, 0xff},
		65536: {0x30, 0x83, 0x01, 0x00, 0x00},
	}
	outerHeader := map[int][]byte{ // outer content: inner TLV plus a NULL
		127:   {0x30, 0x81, 0x83},             // 2+127+2
		128:   {0x30, 0x81, 0x85},             // 3+128+2
		255:   {0x30, 0x82, 0x01, 0x04},       // 3+255+2
		256:   {0x30, 0x82, 0x01, 0x06},       // 4+256+2
		65535: {0x30, 0x83, 0x01, 0x00, 0x05}, // 4+65535+2
		65536: {0x30, 0x83, 0x01, 0x00, 0x07}, // 5+65536+2
	}
	for _, n := range []int{127, 128, 255, 256, 65535, 65536} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i % 251)
		}
		var e Encoder
		e.Sequence(func(e *Encoder) {
			e.Sequence(func(e *Encoder) { e.Raw(payload) })
			e.Null()
		})
		var want []byte
		want = append(want, outerHeader[n]...)
		want = append(want, header[n]...)
		want = append(want, payload...)
		want = append(want, TagNull, 0x00)
		if !bytes.Equal(e.Bytes(), want) {
			got := e.Bytes()
			t.Errorf("content %d: got %d bytes starting %x, want %d starting %x", n, len(got), got[:min(len(got), 8)], len(want), want[:8])
		}
	}
}
