package linking

import (
	"crypto/ed25519"
	"fmt"
	"hash/maphash"
	"math/big"
	"net"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"securepki/internal/analysis"
	"securepki/internal/netsim"
	"securepki/internal/scanstore"
	"securepki/internal/truststore"
	"securepki/internal/x509lite"
)

// referenceValue is Value as it was written before the linker keyed
// records: strings built with fmt, Name.String and strings.Join. The
// renderer must produce exactly these bytes, or groups would move.
func referenceValue(cert *x509lite.Certificate, f Feature) (string, bool) {
	join := func(parts []string) (string, bool) {
		if len(parts) == 0 {
			return "", false
		}
		sorted := append([]string(nil), parts...)
		sort.Strings(sorted)
		return strings.Join(sorted, ","), true
	}
	switch f {
	case FeaturePublicKey:
		return cert.PublicKeyFingerprint().String(), true
	case FeatureNotBefore:
		return fmt.Sprintf("%d", cert.NotBefore.Unix()), true
	case FeatureNotAfter:
		return fmt.Sprintf("%d", cert.NotAfter.Unix()), true
	case FeatureCommonName:
		cn := cert.Subject.CommonName
		return cn, cn != ""
	case FeatureIssuerSerial:
		return cert.Issuer.String() + "|" + cert.SerialNumber.String(), true
	case FeatureSAN:
		parts := append([]string(nil), cert.DNSNames...)
		for _, ip := range cert.IPAddresses {
			parts = append(parts, ip.String())
		}
		return join(parts)
	case FeatureCRL:
		return join(cert.CRLDistributionPoints)
	case FeatureAIA:
		return join(cert.IssuingCertificateURL)
	case FeatureOCSP:
		return join(cert.OCSPServer)
	case FeatureOID:
		var parts []string
		for _, oid := range cert.PolicyOIDs {
			parts = append(parts, x509lite.OIDString(oid))
		}
		return join(parts)
	}
	return "", false
}

// The bytes the linker keys equal Value, and Value equals the reference
// rendering, for every certificate and feature of the generated corpus. The
// renderer is reused across certificates in corpus order, as records reuses
// it, so a buffer that leaked from one certificate to the next would show.
func TestKeyedBytesEqualValue(t *testing.T) {
	ds, _ := generated(t)
	for _, f := range AllFeatures() {
		var r renderer
		present := 0
		for _, rec := range ds.Corpus.Certs() {
			want, wantOK := referenceValue(rec.Cert, f)
			if v, ok := Value(rec.Cert, f); v != want || ok != wantOK {
				t.Fatalf("%v of cert %d: Value = %q, %v; reference %q, %v", f, rec.ID, v, ok, want, wantOK)
			}
			b, ok := r.render(rec.Cert, f)
			if string(b) != want || ok != wantOK {
				t.Fatalf("%v of cert %d: keyed bytes %q, %v; Value %q, %v", f, rec.ID, b, ok, want, wantOK)
			}
			if ok {
				present++
			}
		}
		if present == 0 {
			t.Errorf("no certificate of the corpus carries %v; the comparison proves nothing for it", f)
		}
	}

	// Every record carries the key of its own certificate's value.
	l := NewLinker(ds, DefaultConfig(), 1, nil)
	sc := new(scratch)
	for _, f := range AllFeatures() {
		recs := l.records(sc, f, nil, false)
		want := 0
		for _, info := range l.eligible {
			if _, ok := Value(info.cert, f); ok {
				want++
			}
		}
		if len(recs) != want {
			t.Errorf("%v: %d records, want one per eligible certificate carrying it (%d)", f, len(recs), want)
		}
		for _, rec := range recs {
			v, _ := Value(l.eligible[rec.idx].cert, f)
			if rec.key != maphash.String(keySeed, v) {
				t.Fatalf("%v: record of eligible %d is not keyed by its value %q", f, rec.idx, v)
			}
		}
	}
}

// The forms the generated corpus never produces render as the reference
// does too: IP SANs, several policy OIDs, unsorted URL lists, serials
// beyond int64, negative and nil serials, and a certificate with nothing.
func TestKeyedBytesEqualValueOddForms(t *testing.T) {
	huge, _ := new(big.Int).SetString("123456789012345678901234567890", 10)
	certs := []*x509lite.Certificate{
		{},
		{
			SerialNumber:          huge,
			Issuer:                x509lite.Name{Country: "DE", Organization: "AVM", CommonName: "AVM Root"},
			Subject:               x509lite.Name{CommonName: "fritz.box"},
			NotBefore:             time.Date(1969, 12, 31, 23, 59, 0, 0, time.UTC),
			DNSNames:              []string{"www.fritz.box", "fritz.box"},
			IPAddresses:           []net.IP{net.IPv4(192, 168, 178, 1), net.ParseIP("2001:db8::1"), net.IPv4(10, 0, 0, 1).To4()},
			CRLDistributionPoints: []string{"http://b.example/crl", "http://a.example/crl"},
			IssuingCertificateURL: []string{"http://aia.example"},
			OCSPServer:            []string{"http://z.example", "http://y.example"},
			PolicyOIDs:            [][]int{{2, 23, 140, 1, 2, 1}, {1, 3, 6, 1, 4, 1, 99999, 12}},
		},
		{SerialNumber: big.NewInt(-42), IPAddresses: []net.IP{net.IPv4(8, 8, 8, 8)}, PolicyOIDs: [][]int{{2, 5, 29, 32, 0}}},
	}
	var r renderer
	for i, cert := range certs {
		for _, f := range AllFeatures() {
			want, wantOK := referenceValue(cert, f)
			b, ok := r.render(cert, f)
			if string(b) != want || ok != wantOK {
				t.Errorf("cert %d, %v: keyed bytes %q, %v; reference %q, %v", i, f, b, ok, want, wantOK)
			}
		}
	}
}

// Two different values forced onto one key stay two candidate groups: the
// sweep compares the rendered bytes of equal keys, so a hash collision can
// never merge values. With every key of the Figure 9 scenario forced to
// zero, one run holds all three public keys; merged, those eight
// certificates would overlap by two scans and link nothing.
func TestKeyCollisionKeepsValuesApart(t *testing.T) {
	fx := buildFigure9(t)
	l := NewLinker(fx.ds, DefaultConfig(), 1, nil)
	want := l.LinkOn(FeaturePublicKey, nil)
	if len(want) != 2 {
		t.Fatalf("Figure 9 links %d public-key groups, want 2", len(want))
	}

	sc := new(scratch)
	recs := l.records(sc, FeaturePublicKey, nil, true)
	for i := range recs {
		recs[i].key = 0
	}
	slices.SortFunc(recs, compareRecords)
	got, candidates := l.sweep(sc, FeaturePublicKey, recs)
	if candidates != 3 {
		t.Errorf("colliding keys gave %d candidate groups, want one per public key (3)", candidates)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("colliding keys linked %v, want %v", got, want)
	}
}

// The same at scale: on the generated corpus, with the keys of every
// feature folded onto 16 values, so each run mixes many values, the sweep
// forms exactly the groups and candidate counts of the true keys.
func TestKeyCollisionsAtScale(t *testing.T) {
	ds, _ := generated(t)
	l := NewLinker(ds, DefaultConfig(), 1, nil)
	sc := new(scratch)
	for _, f := range AllFeatures() {
		want, wantCandidates := l.sweep(sc, f, l.records(sc, f, nil, true))
		recs := l.records(sc, f, nil, true)
		for i := range recs {
			recs[i].key &= 0xf
		}
		slices.SortFunc(recs, compareRecords)
		got, candidates := l.sweep(sc, f, recs)
		if candidates != wantCandidates {
			t.Errorf("%v: %d candidate groups under collisions, want %d", f, candidates, wantCandidates)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: collisions changed the groups: %d vs %d", f, len(got), len(want))
		}
	}
}

// Value renders names as Name.String does, and that rendering is not
// injective: an issuer {O: "x, CN=y"} and an issuer {O: "x", CN: "y"} both
// render "O=x, CN=y". Two certificates with those issuers and one serial
// share an IN + SN value, so they form one group, as they always have.
func TestIssuerSerialFollowsNameRendering(t *testing.T) {
	b := netsim.NewBuilder()
	b.AddAS(100, "Test ISP", "USA", netsim.TransitAccess, netsim.ReassignPolicy{StaticFraction: 1})
	b.Announce(100, netsim.MakePrefix(netsim.MakeIP(20, 0, 0, 0), 8))
	inet, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	corpus := scanstore.NewCorpus()
	mk := func(keySeed byte, issuer x509lite.Name) scanstore.CertID {
		seed := make([]byte, ed25519.SeedSize)
		seed[0] = keySeed
		priv := ed25519.NewKeyFromSeed(seed)
		der, err := x509lite.CreateCertificate(&x509lite.Template{
			Version:      3,
			SerialNumber: big.NewInt(7),
			Subject:      x509lite.Name{CommonName: fmt.Sprintf("cn-%d", keySeed)},
			Issuer:       issuer,
			NotBefore:    time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:     time.Date(2033, 1, 1, 0, 0, 0, 0, time.UTC),
		}, priv.Public().(ed25519.PublicKey), priv)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := x509lite.Parse(der)
		if err != nil {
			t.Fatal(err)
		}
		id := corpus.Intern(cert)
		corpus.Cert(id).Status = truststore.UntrustedIssuer
		return id
	}
	a := mk(1, x509lite.Name{Organization: "x, CN=y"})
	c := mk(2, x509lite.Name{Organization: "x", CommonName: "y"})
	day := func(n int) time.Time { return time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7*n) }
	ip := netsim.MakeIP(20, 0, 0, 1)
	for i, id := range []scanstore.CertID{a, c} {
		if _, err := corpus.AddScan(scanstore.UMich, day(i), []scanstore.Observation{{Cert: id, IP: ip}}); err != nil {
			t.Fatal(err)
		}
	}
	l := NewLinker(analysis.NewDatasetWorkers(corpus, inet, 0), DefaultConfig(), 1, nil)
	groups := l.LinkOn(FeatureIssuerSerial, nil)
	want := []Group{{Feature: FeatureIssuerSerial, Value: "O=x, CN=y|7", Certs: []scanstore.CertID{a, c}}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("IN + SN groups = %+v, want %+v", groups, want)
	}
}
