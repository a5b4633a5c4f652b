package x509lite_test

import (
	"testing"

	"securepki/internal/certmutate"
	"securepki/internal/x509lite"
)

// FuzzParseCert is the adversarial companion to FuzzParse: its seed corpus is
// the certmutate operator battery — every registered mutation (population and
// hostile class alike) applied to the reference cert and to a donor — so the
// fuzzer starts from the malformed shapes the paper's corpus is made of
// rather than from well-formed DER. It lives in the external test package
// because certmutate depends on x509lite.
func FuzzParseCert(f *testing.F) {
	base, err := certmutate.BatteryCert()
	if err != nil {
		f.Fatal(err)
	}
	m, err := certmutate.New(4242, 1)
	if err != nil {
		f.Fatal(err)
	}
	bases := [][]byte{base.Raw, m.Donors().Certs()[0].Raw}
	f.Add(base.Raw)
	seeded := 0
	for _, op := range certmutate.Registry() {
		for bi, b := range bases {
			der, err := m.Apply(op, bi, b)
			if err != nil {
				// Swap operators no-op when a donor base draws itself; every
				// operator still seeds from the battery base.
				continue
			}
			f.Add(der)
			seeded++
		}
	}
	if seeded < len(certmutate.Registry()) {
		f.Fatalf("only %d operator seeds; registry has %d operators", seeded, len(certmutate.Registry()))
	}

	f.Fuzz(func(t *testing.T, der []byte) {
		cert, err := x509lite.Parse(der)
		if err != nil {
			return
		}
		// The FuzzParse invariants, now reachable from hostile starting
		// points: stable fingerprinting and panic-free derived views.
		if cert.Fingerprint() != x509lite.FingerprintBytes(der) {
			t.Fatal("fingerprint not over raw DER")
		}
		// The first SelfSigned runs the check and stores the verdict, the
		// second reads it: both must agree with a direct check on every
		// shape the fuzzer reaches.
		want := cert.CheckSignatureFrom(cert) == nil
		for call := 1; call <= 2; call++ {
			if got := cert.SelfSigned(); got != want {
				t.Fatalf("SelfSigned call %d = %v, CheckSignatureFrom says %v", call, got, want)
			}
		}
		_ = cert.Text()
		_ = cert.SelfIssued()
		_ = cert.ValidityDays()
	})
}
