package certmutate

import (
	"bytes"
	"errors"
	"math/big"
	"sort"
	"strings"
	"time"

	"securepki/internal/asn1der"
	"securepki/internal/stats"
)

// Class partitions operators by their downstream contract; see the package
// comment.
type Class uint8

const (
	// Population operators keep the certificate x509lite-parseable.
	Population Class = iota
	// Hostile operators break the DER framing itself; every parser in the
	// repo (and crypto/x509) must reject the output cleanly.
	Hostile
)

// String renders the class for goldens and triage tables.
func (c Class) String() string {
	if c == Hostile {
		return "hostile"
	}
	return "population"
}

// Operator is one registered mutation: a stable ID, a version bumped whenever
// the rewrite changes (mutated populations are reproducible artifacts, so
// operator identity matters exactly like certlint linter identity), a class,
// and the lint expectations the mutation↔lint golden matrix pins.
type Operator struct {
	// ID is the stable registry key, unique and lowercase snake_case.
	ID string
	// Version starts at 1 and is bumped whenever the rewrite's output bytes
	// change for any input.
	Version int
	// Class declares the parseability contract; see Class.
	Class Class
	// Describe explains the mutation (surfaced by the triage table).
	Describe string
	// MustTrip lists certlint linter IDs a mutant of a well-formed leaf (the
	// matrix test's reference battery) must trigger; MustNotTrip lists IDs it
	// must not. Both are evaluated context-free (no population KeyCount).
	MustTrip    []string
	MustNotTrip []string

	mutate func(der []byte, donors *Donors, rng *stats.RNG) ([]byte, error)
}

// errNoChange reports an operator whose rewrite left the input bytes intact
// (e.g. clearing an already-empty subject). The Mutator falls back to a
// guaranteed-change operator so the configured malformed fraction holds.
var errNoChange = errors.New("certmutate: operator produced an unchanged certificate")

// fallbackOperatorID is the deterministic substitute when a drawn operator
// cannot change a particular certificate: version_absurd changes any input
// whose version is not already 99, which no generator in this repo emits.
const fallbackOperatorID = "version_absurd"

// overlongCN is the pathological-length payload: ~2.1 KB of CN forces
// long-form lengths through the attribute, RDN, name and TBS framing.
var overlongCN = strings.Repeat("frankencert-overlong.", 100)

// registry returns the full operator battery, ID-sorted. It builds fresh
// slices so callers can filter freely.
func registry() []Operator {
	ops := []Operator{
		{
			ID: "version_absurd", Version: 1, Class: Population,
			Describe:    "sets the X.509 version to 99, far beyond the defined 1..3 range",
			MustTrip:    []string{"version_bogus"},
			MustNotTrip: []string{"version_v1_leaf"},
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					p.setVersion(99)
					return nil
				})
			},
		},
		{
			ID: "serial_negative", Version: 1, Class: Population,
			Describe:    "negates the serial number (RFC 5280 requires a positive integer)",
			MustTrip:    []string{"serial_nonpositive"},
			MustNotTrip: []string{"serial_absurd_length"},
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					s, err := p.readSerial()
					if err != nil {
						return err
					}
					neg := new(big.Int).Neg(new(big.Int).Abs(s))
					if neg.Sign() == 0 {
						neg = big.NewInt(-1)
					}
					p.setSerial(neg)
					return nil
				})
			},
		},
		{
			ID: "serial_oversized", Version: 1, Class: Population,
			Describe:    "replaces the serial with a 25-octet value, past RFC 5280's 20-octet cap",
			MustTrip:    []string{"serial_absurd_length"},
			MustNotTrip: []string{"serial_nonpositive"},
			mutate: func(der []byte, _ *Donors, rng *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					b := make([]byte, 25)
					for i := range b {
						b[i] = byte(rng.Uint64())
					}
					b[0] = (b[0] | 0x01) &^ 0x80 // positive, leading octet non-zero
					p.setSerial(new(big.Int).SetBytes(b))
					return nil
				})
			},
		},
		{
			ID: "validity_inverted", Version: 1, Class: Population,
			Describe:    "swaps NotBefore and NotAfter so the validity window is negative",
			MustTrip:    []string{"validity_negative"},
			MustNotTrip: []string{"validity_excessive"},
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					nb, na, err := p.validityTimes()
					if err != nil {
						return err
					}
					p.setValidity(na, nb)
					return nil
				})
			},
		},
		{
			ID: "validity_y9999", Version: 1, Class: Population,
			Describe:    "pushes NotAfter to 9999-12-31, the far edge of GeneralizedTime",
			MustTrip:    []string{"validity_beyond_y3000", "validity_excessive"},
			MustNotTrip: []string{"validity_negative", "time_encoding_mismatch"},
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					nb, _, err := p.validityTimes()
					if err != nil {
						return err
					}
					var e asn1der.Encoder
					e.GeneralizedTime(time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC))
					p.setValidity(nb, e.Bytes())
					return nil
				})
			},
		},
		{
			ID: "time_generalized", Version: 1, Class: Population,
			Describe:    "re-encodes both validity times as GeneralizedTime, violating RFC 5280's pre-2050 UTCTime rule",
			MustTrip:    []string{"time_encoding_mismatch"},
			MustNotTrip: []string{"validity_negative"},
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					nbRaw, naRaw, err := p.validityTimes()
					if err != nil {
						return err
					}
					regen := func(raw []byte) ([]byte, error) {
						d := *asn1der.NewDecoder(raw)
						t, err := d.Time()
						if err != nil {
							return nil, err
						}
						var e asn1der.Encoder
						e.GeneralizedTime(t)
						return e.Bytes(), nil
					}
					nb, err := regen(nbRaw)
					if err != nil {
						return err
					}
					na, err := regen(naRaw)
					if err != nil {
						return err
					}
					p.setValidity(nb, na)
					return nil
				})
			},
		},
		{
			ID: "name_swap_issuer", Version: 1, Class: Population,
			Describe:    "frankencert field swap: replaces the issuer name with a donor certificate's subject",
			MustNotTrip: []string{"self_signed"},
			mutate: func(der []byte, donors *Donors, rng *stats.RNG) ([]byte, error) {
				donor := donors.pick(rng)
				return rewrite(der, func(p *certParts) error {
					p.issuer = donor.subject
					return nil
				})
			},
		},
		{
			ID: "name_swap_subject", Version: 1, Class: Population,
			Describe:    "frankencert field swap: replaces the subject with a donor's CA-styled name",
			MustTrip:    []string{"basicconstraints_missing_ca"},
			MustNotTrip: []string{"subject_empty", "subject_ip"},
			mutate: func(der []byte, donors *Donors, rng *stats.RNG) ([]byte, error) {
				donor := donors.pick(rng)
				return rewrite(der, func(p *certParts) error {
					p.subject = donor.subject
					return nil
				})
			},
		},
		{
			ID: "spki_swap", Version: 1, Class: Population,
			Describe: "frankencert field swap: replaces the SubjectPublicKeyInfo with a donor's key",
			mutate: func(der []byte, donors *Donors, rng *stats.RNG) ([]byte, error) {
				donor := donors.pick(rng)
				return rewrite(der, func(p *certParts) error {
					p.spki = donor.spki
					return nil
				})
			},
		},
		{
			ID: "subject_clear", Version: 1, Class: Population,
			Describe:    "empties the subject entirely (925k such certs in the paper's corpus)",
			MustTrip:    []string{"subject_empty"},
			MustNotTrip: []string{"subject_ip", "subject_private_ip"},
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					p.subject = []byte{0x30, 0x00}
					return nil
				})
			},
		},
		{
			ID: "cn_overlong", Version: 1, Class: Population,
			Describe:    "replaces the subject with a ~2 KB Common Name, forcing long-form lengths through every enclosing frame",
			MustNotTrip: []string{"subject_empty"},
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					p.subject = encodeCNName(overlongCN)
					return nil
				})
			},
		},
		{
			ID: "san_empty_dns", Version: 1, Class: Population,
			Describe:    "rewrites the SAN to hold a zero-length dNSName next to a valid one",
			MustTrip:    []string{"dns_name_malformed"},
			MustNotTrip: []string{"san_missing", "san_duplicate"},
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					p.ensureV3()
					var v asn1der.Encoder
					v.Sequence(func(e *asn1der.Encoder) {
						e.ContextImplicitPrimitive(2, nil) // zero-length dNSName
						e.ContextImplicitPrimitive(2, []byte("mutant.example"))
					})
					return replaceOrAppendExtension(p, oidExtSAN, encodeExtension(oidExtSAN, false, v.Bytes()))
				})
			},
		},
		{
			ID: "ext_duplicate", Version: 1, Class: Population,
			Describe:    "duplicates an existing extension (the SAN when present), yielding two extensions with one OID",
			MustTrip:    []string{"san_duplicate"},
			MustNotTrip: []string{"san_missing"},
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					p.ensureV3()
					exts, err := p.extensionList()
					if err != nil {
						return err
					}
					if len(exts) == 0 {
						var v asn1der.Encoder
						v.Null()
						ue := encodeExtension(oidUnknownExt, false, v.Bytes())
						p.setExtensionList([][]byte{ue, ue})
						return nil
					}
					dup := exts[len(exts)-1]
					if i := findExtension(exts, oidExtSAN); i >= 0 {
						dup = exts[i]
					}
					p.setExtensionList(append(exts, dup))
					return nil
				})
			},
		},
		{
			ID: "ext_unknown_truncated", Version: 1, Class: Population,
			Describe: "appends an unknown-OID extension whose value is a truncated TLV (inner length overruns the content)",
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					p.ensureV3()
					exts, err := p.extensionList()
					if err != nil {
						return err
					}
					// SEQUENCE claiming 16 content bytes with only 2 present;
					// the outer OCTET STRING frames it correctly, so parsers
					// that skip unknown extensions never notice.
					truncated := []byte{0x30, 0x10, 0x04, 0x01}
					p.setExtensionList(append(exts, encodeExtension(oidUnknownExt, false, truncated)))
					return nil
				})
			},
		},
		{
			ID: "ext_oid_oversized", Version: 1, Class: Population,
			Describe: "appends an extension whose OID carries 38 arcs near 2^24 (~120 bytes of OID)",
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					p.ensureV3()
					exts, err := p.extensionList()
					if err != nil {
						return err
					}
					oid := []int{1, 3, 6, 1, 4, 1}
					for i := 0; i < 32; i++ {
						oid = append(oid, 1<<24-1)
					}
					var v asn1der.Encoder
					v.Null()
					p.setExtensionList(append(exts, encodeExtension(oid, false, v.Bytes())))
					return nil
				})
			},
		},
		{
			ID: "keyusage_multibyte", Version: 1, Class: Population,
			Describe:    "installs a two-byte KeyUsage BIT STRING (keyCertSign|cRLSign|decipherOnly), wider than the one byte well-formed device certs use",
			MustTrip:    []string{"basicconstraints_missing_ca"},
			MustNotTrip: []string{"key_usage_missing"},
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					p.ensureV3()
					var v asn1der.Encoder
					v.BitString([]byte{0x05, 0x80})
					return replaceOrAppendExtension(p, oidExtKeyUsage, encodeExtension(oidExtKeyUsage, true, v.Bytes()))
				})
			},
		},
		{
			ID: "signature_truncate", Version: 1, Class: Population,
			Describe:    "truncates the signature BIT STRING to 5 octets; parsers accept it, verification cannot",
			MustNotTrip: []string{"self_signed"},
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					d := *asn1der.NewDecoder(p.sig)
					bits, err := d.BitString()
					if err != nil {
						return err
					}
					if len(bits) > 5 {
						bits = bits[:5]
					}
					var e asn1der.Encoder
					e.BitString(bits)
					p.sig = e.Bytes()
					return nil
				})
			},
		},

		// --- hostile class: framing-level damage both parsers must reject ---
		{
			ID: "serial_nonminimal", Version: 1, Class: Hostile,
			Describe: "pads the serial INTEGER with leading zero octets — a non-minimal encoding DER forbids",
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					d := *asn1der.NewDecoder(p.serial)
					_, content, err := d.ReadAny()
					if err != nil {
						return err
					}
					pad := []byte{0x00}
					if len(content) > 0 && content[0]&0x80 != 0 {
						// A single zero would make a negative value positive —
						// the minimal form. Two keep it non-minimal.
						pad = []byte{0x00, 0x00}
					}
					p.serial = rawTLV(asn1der.TagInteger, append(pad, content...))
					return nil
				})
			},
		},
		{
			ID: "len_nonminimal", Version: 1, Class: Hostile,
			Describe: "re-encodes the version element's length in two-byte long form with a leading zero — non-minimal, so strict DER readers reject",
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				return rewrite(der, func(p *certParts) error {
					p.ensureV3()
					d := *asn1der.NewDecoder(p.version)
					_, content, err := d.ReadAny()
					if err != nil {
						return err
					}
					if len(content) > 0xff {
						return errors.New("certmutate: version element too large to re-frame")
					}
					p.version = append([]byte{tagContextExplicit(0), 0x82, 0x00, byte(len(content))}, content...)
					return nil
				})
			},
		},
		{
			ID: "truncated_tail", Version: 1, Class: Hostile,
			Describe: "drops the last 7 bytes, leaving the outer SEQUENCE length pointing past the end",
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				if len(der) <= 16 {
					return nil, errors.New("certmutate: certificate too short to truncate")
				}
				return append([]byte(nil), der[:len(der)-7]...), nil
			},
		},
		{
			ID: "trailing_garbage", Version: 1, Class: Hostile,
			Describe: "appends 4 garbage bytes after the certificate; DER documents must end exactly",
			mutate: func(der []byte, _ *Donors, _ *stats.RNG) ([]byte, error) {
				out := make([]byte, 0, len(der)+4)
				out = append(out, der...)
				return append(out, 0xde, 0xad, 0xbe, 0xef), nil
			},
		},
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })
	return ops
}

// Registry returns every operator, ID-sorted.
func Registry() []Operator { return registry() }

// PopulationOperators returns the ID-sorted population-class operators — the
// set eligible for devicesim injection.
func PopulationOperators() []Operator { return filterClass(Population) }

// HostileOperators returns the ID-sorted hostile-class operators.
func HostileOperators() []Operator { return filterClass(Hostile) }

func filterClass(c Class) []Operator {
	var out []Operator
	for _, op := range registry() {
		if op.Class == c {
			out = append(out, op)
		}
	}
	return out
}

// findExtension returns the index of the first Extension TLV carrying oid,
// or -1.
func findExtension(exts [][]byte, oid []int) int {
	want := asn1der.OIDContents(oid)
	for i, ext := range exts {
		if bytes.Equal(extensionOID(ext), want) {
			return i
		}
	}
	return -1
}

// replaceOrAppendExtension swaps the extension carrying oid for repl, or
// appends repl when absent.
func replaceOrAppendExtension(p *certParts, oid []int, repl []byte) error {
	exts, err := p.extensionList()
	if err != nil {
		return err
	}
	if i := findExtension(exts, oid); i >= 0 {
		exts[i] = repl
	} else {
		exts = append(exts, repl)
	}
	p.setExtensionList(exts)
	return nil
}

// rawTLV frames content under tag with a minimal definite length. The
// encoder package deliberately has no raw-content TLV API (its typed methods
// guarantee valid DER); mutation is the one place that needs the loophole.
func rawTLV(tag byte, content []byte) []byte {
	out := []byte{tag}
	n := len(content)
	switch {
	case n < 0x80:
		out = append(out, byte(n))
	case n <= 0xff:
		out = append(out, 0x81, byte(n))
	default:
		out = append(out, 0x82, byte(n>>8), byte(n))
	}
	return append(out, content...)
}
