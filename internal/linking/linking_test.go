package linking

import (
	"crypto/ed25519"
	"math/big"
	"reflect"
	"sync"
	"testing"
	"time"

	"securepki/internal/analysis"
	"securepki/internal/devicesim"
	"securepki/internal/netsim"
	"securepki/internal/scanner"
	"securepki/internal/scanstore"
	"securepki/internal/truststore"
	"securepki/internal/x509lite"
)

// --- hand-built Figure 9 scenario ---------------------------------------

type figure9 struct {
	corpus *scanstore.Corpus
	ds     *analysis.Dataset
	certs  map[string]scanstore.CertID
}

var fig9Serial int64 = 100

// fig9Cert builds a self-signed invalid cert with a chosen key seed — certs
// sharing seed share a public key, mirroring the figure's PK groups.
func fig9Cert(t *testing.T, keySeed byte, cn string) *x509lite.Certificate {
	t.Helper()
	seed := make([]byte, ed25519.SeedSize)
	seed[0] = keySeed
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	fig9Serial++
	der, err := x509lite.CreateCertificate(&x509lite.Template{
		Version:      3,
		SerialNumber: big.NewInt(fig9Serial),
		Subject:      x509lite.Name{CommonName: cn},
		Issuer:       x509lite.Name{CommonName: cn},
		NotBefore:    time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2033, 1, 1, 0, 0, 0, 0, time.UTC),
	}, pub, priv)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509lite.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

// buildFigure9 reconstructs the paper's Figure 9 timeline:
//
//	scan:        1       2       3       4
//	PK1:  cert1@A  cert2@A   --    cert2@A     (linkable)
//	PK2:  cert3@B  cert3@B,cert4@C cert4@C cert5@D  (linkable: 1-scan overlap)
//	PK3:  cert6@E,cert7@F  cert6@E,cert7@F  --  cert8@E  (NOT linkable)
func buildFigure9(t *testing.T) *figure9 {
	t.Helper()
	b := netsim.NewBuilder()
	b.AddAS(100, "Test ISP", "USA", netsim.TransitAccess, netsim.ReassignPolicy{StaticFraction: 1})
	b.Announce(100, netsim.MakePrefix(netsim.MakeIP(20, 0, 0, 0), 8))
	inet, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	corpus := scanstore.NewCorpus()
	ids := map[string]scanstore.CertID{}
	mk := func(name string, keySeed byte, cn string) scanstore.CertID {
		id := corpus.Intern(fig9Cert(t, keySeed, cn))
		corpus.Cert(id).Status = truststore.SelfSigned
		ids[name] = id
		return id
	}
	// Distinct CNs so only the public key can link anything.
	c1 := mk("cert1", 1, "cn-1")
	c2 := mk("cert2", 1, "cn-2")
	c3 := mk("cert3", 2, "cn-3")
	c4 := mk("cert4", 2, "cn-4")
	c5 := mk("cert5", 2, "cn-5")
	c6 := mk("cert6", 3, "cn-6")
	c7 := mk("cert7", 3, "cn-7")
	c8 := mk("cert8", 3, "cn-8")

	ip := func(last byte) netsim.IP { return netsim.MakeIP(20, 0, 0, last) }
	day := func(n int) time.Time { return time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7*n) }

	corpus.AddScan(scanstore.UMich, day(0), []scanstore.Observation{
		{Cert: c1, IP: ip(1)},
		{Cert: c3, IP: ip(2)},
		{Cert: c6, IP: ip(5)}, {Cert: c7, IP: ip(6)},
	})
	corpus.AddScan(scanstore.UMich, day(1), []scanstore.Observation{
		{Cert: c2, IP: ip(1)},
		{Cert: c3, IP: ip(2)}, {Cert: c4, IP: ip(3)}, // one-scan overlap
		{Cert: c6, IP: ip(5)}, {Cert: c7, IP: ip(6)}, // second overlap scan
	})
	corpus.AddScan(scanstore.UMich, day(2), []scanstore.Observation{
		{Cert: c4, IP: ip(3)},
	})
	corpus.AddScan(scanstore.UMich, day(3), []scanstore.Observation{
		{Cert: c2, IP: ip(1)},
		{Cert: c5, IP: ip(4)},
		{Cert: c8, IP: ip(5)},
	})
	return &figure9{corpus: corpus, ds: analysis.NewDatasetWorkers(corpus, inet, 0), certs: ids}
}

func TestFigure9OverlapRule(t *testing.T) {
	f9 := buildFigure9(t)
	l := NewLinker(f9.ds, DefaultConfig(), 0, nil)
	if l.EligibleCount() != 8 {
		t.Fatalf("eligible = %d, want 8", l.EligibleCount())
	}
	groups := l.LinkOn(FeaturePublicKey, nil)

	byMember := map[scanstore.CertID]*Group{}
	for i := range groups {
		for _, id := range groups[i].Certs {
			byMember[id] = &groups[i]
		}
	}
	// PK1 group: cert1+cert2 linkable.
	g1 := byMember[f9.certs["cert1"]]
	if g1 == nil || len(g1.Certs) != 2 {
		t.Errorf("PK1 not linked as pair: %+v", g1)
	}
	// PK2 group: cert3+cert4+cert5 linkable despite the single-scan overlap.
	g3 := byMember[f9.certs["cert3"]]
	if g3 == nil || len(g3.Certs) != 3 {
		t.Errorf("PK2 not linked as triple: %+v", g3)
	}
	// PK3: cert6/cert7 overlap on two scans — must NOT be linked.
	if byMember[f9.certs["cert6"]] != nil {
		t.Error("PK3 certs linked despite two-scan overlap")
	}
}

func TestFigure9ZeroOverlapAblation(t *testing.T) {
	// With MaxOverlapScans = 0 the PK2 triple must fall apart (cert3 and
	// cert4 share scan 2), while PK1 still links.
	f9 := buildFigure9(t)
	cfg := DefaultConfig()
	cfg.MaxOverlapScans = 0
	l := NewLinker(f9.ds, cfg, 0, nil)
	groups := l.LinkOn(FeaturePublicKey, nil)
	for _, g := range groups {
		for _, id := range g.Certs {
			if id == f9.certs["cert3"] || id == f9.certs["cert4"] {
				t.Errorf("zero-overlap config still linked PK2: %v", g.Certs)
			}
		}
	}
	if len(groups) == 0 {
		t.Error("PK1 should still link with zero overlap allowed")
	}
}

func TestScanDuplicateRule(t *testing.T) {
	b := netsim.NewBuilder()
	b.AddAS(100, "Test ISP", "USA", netsim.TransitAccess, netsim.ReassignPolicy{StaticFraction: 1})
	b.Announce(100, netsim.MakePrefix(netsim.MakeIP(20, 0, 0, 0), 8))
	inet, _ := b.Build()

	corpus := scanstore.NewCorpus()
	tri := corpus.Intern(fig9Cert(t, 10, "three-ips"))
	two := corpus.Intern(fig9Cert(t, 11, "two-ips-once"))
	alwaysTwo := corpus.Intern(fig9Cert(t, 12, "two-ips-always"))
	single := corpus.Intern(fig9Cert(t, 13, "one-ip"))
	for _, id := range []scanstore.CertID{tri, two, alwaysTwo, single} {
		corpus.Cert(id).Status = truststore.SelfSigned
	}
	ip := func(last byte) netsim.IP { return netsim.MakeIP(20, 0, 0, last) }
	day := func(n int) time.Time { return time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7*n) }
	corpus.AddScan(scanstore.UMich, day(0), []scanstore.Observation{
		{Cert: tri, IP: ip(1)}, {Cert: tri, IP: ip(2)}, {Cert: tri, IP: ip(3)},
		{Cert: two, IP: ip(4)}, {Cert: two, IP: ip(5)},
		{Cert: alwaysTwo, IP: ip(6)}, {Cert: alwaysTwo, IP: ip(7)},
		{Cert: single, IP: ip(8)},
	})
	corpus.AddScan(scanstore.UMich, day(1), []scanstore.Observation{
		{Cert: two, IP: ip(4)},
		{Cert: alwaysTwo, IP: ip(6)}, {Cert: alwaysTwo, IP: ip(7)},
		{Cert: single, IP: ip(8)},
	})

	ds := analysis.NewDatasetWorkers(corpus, inet, 0)
	l := NewLinker(ds, DefaultConfig(), 0, nil)
	// tri: >2 IPs -> excluded. alwaysTwo: exactly two in every scan ->
	// excluded. two: two IPs once, then one -> kept. single: kept.
	if l.EligibleCount() != 2 {
		t.Errorf("eligible = %d, want 2", l.EligibleCount())
	}
	if l.ExcludedShared() != 2 {
		t.Errorf("excluded = %d, want 2", l.ExcludedShared())
	}
}

// --- generated-corpus fixture -------------------------------------------

var (
	linkOnce    sync.Once
	linkFixture struct {
		ds    *analysis.Dataset
		truth *scanner.Truth
		err   error
	}
)

func generated(t *testing.T) (*analysis.Dataset, *scanner.Truth) {
	t.Helper()
	linkOnce.Do(func() {
		wcfg := devicesim.DefaultConfig()
		wcfg.NumDevices = 2500
		wcfg.NumSites = 1000
		world, err := devicesim.BuildWorld(wcfg)
		if err != nil {
			linkFixture.err = err
			return
		}
		scfg := scanner.DefaultConfig()
		scfg.UMichScans = 20
		scfg.Rapid7Scans = 10
		camp, err := scanner.New(world, scfg)
		if err != nil {
			linkFixture.err = err
			return
		}
		corpus, truth, err := camp.Run(0)
		if err != nil {
			linkFixture.err = err
			return
		}
		store := truststore.NewStore()
		for _, r := range world.Roots() {
			store.AddRoot(r)
		}
		corpus.ValidateWorkers(store, 0)
		linkFixture.ds = analysis.NewDatasetWorkers(corpus, world.Internet, 0)
		linkFixture.truth = truth
	})
	if linkFixture.err != nil {
		t.Fatal(linkFixture.err)
	}
	return linkFixture.ds, linkFixture.truth
}

func TestTable5FeatureUniqueness(t *testing.T) {
	ds, _ := generated(t)
	l := NewLinker(ds, DefaultConfig(), 0, nil)
	stats := l.FeatureUniqueness()
	by := map[Feature]FeatureStat{}
	for _, s := range stats {
		by[s.Feature] = s
	}
	// Table 5 ordering: NotBefore/CN/NotAfter highly non-unique; PK in the
	// middle; IN+SN nearly unique.
	if by[FeatureNotBefore].NonUniqueFrac < by[FeatureIssuerSerial].NonUniqueFrac {
		t.Errorf("NotBefore (%.2f) should be less unique than IN+SN (%.2f)",
			by[FeatureNotBefore].NonUniqueFrac, by[FeatureIssuerSerial].NonUniqueFrac)
	}
	if by[FeatureCommonName].NonUniqueFrac < 0.3 {
		t.Errorf("CN non-unique = %.2f, want high", by[FeatureCommonName].NonUniqueFrac)
	}
	if by[FeaturePublicKey].NonUniqueFrac < 0.2 || by[FeaturePublicKey].NonUniqueFrac > 0.8 {
		t.Errorf("PK non-unique = %.2f (paper: 47%%)", by[FeaturePublicKey].NonUniqueFrac)
	}
	if by[FeatureIssuerSerial].NonUniqueFrac > 0.25 {
		t.Errorf("IN+SN non-unique = %.2f (paper: 4.2%%)", by[FeatureIssuerSerial].NonUniqueFrac)
	}
	// CRL/AIA/OCSP/OID are rarely present (§6.3.1: ~<1%; scaled corpus a
	// few percent).
	for _, f := range []Feature{FeatureCRL, FeatureAIA, FeatureOCSP, FeatureOID} {
		if by[f].PresentFrac > 0.2 {
			t.Errorf("%v present on %.2f of invalid certs, want rare", f, by[f].PresentFrac)
		}
	}
}

func TestTable6Evaluation(t *testing.T) {
	ds, _ := generated(t)
	l := NewLinker(ds, DefaultConfig(), 0, nil)
	evals := l.EvaluateAll()
	// Link keeps the evaluation it ordered the fields by, one per feature in
	// feature order, so no reader has to link every field again.
	if got := l.Link().Evals; !reflect.DeepEqual(got, evals) {
		t.Errorf("Link kept %d evaluations, not EvaluateAll's %d", len(got), len(evals))
	}
	by := map[Feature]FieldEval{}
	for i, ev := range evals {
		if ev.Feature != Feature(i) {
			t.Errorf("evaluation %d is of %v, want feature order", i, ev.Feature)
		}
		by[ev.Feature] = ev
	}
	// Public key links the most certificates.
	for f, ev := range by {
		if f == FeaturePublicKey {
			continue
		}
		if ev.TotalLinked > by[FeaturePublicKey].TotalLinked {
			t.Errorf("%v links more certs (%d) than public key (%d)",
				f, ev.TotalLinked, by[FeaturePublicKey].TotalLinked)
		}
	}
	// PK: high AS consistency, lower IP consistency (German daily
	// renumbering).
	pk := by[FeaturePublicKey]
	if pk.ASConsistency < 0.9 {
		t.Errorf("PK AS consistency = %.3f", pk.ASConsistency)
	}
	if pk.IPConsistency >= pk.ASConsistency {
		t.Errorf("PK IP consistency (%.3f) should be below AS (%.3f)",
			pk.IPConsistency, pk.ASConsistency)
	}
	// Timestamps are coincidental: their AS consistency must be the worst.
	if by[FeatureNotBefore].TotalLinked > 0 && by[FeatureNotBefore].ASConsistency > pk.ASConsistency {
		t.Errorf("NotBefore AS consistency %.3f exceeds PK %.3f",
			by[FeatureNotBefore].ASConsistency, pk.ASConsistency)
	}
	// CRL-linked groups are enterprise boxes on static addresses: highest
	// IP-level consistency (paper: 85.8%).
	if by[FeatureCRL].TotalLinked > 0 && by[FeatureCRL].IPConsistency < pk.IPConsistency {
		t.Errorf("CRL IP consistency %.3f below PK %.3f",
			by[FeatureCRL].IPConsistency, pk.IPConsistency)
	}
	// /24 consistency sits between IP and AS for the big fields.
	if pk.S24Consistency < pk.IPConsistency || pk.S24Consistency > pk.ASConsistency {
		t.Errorf("PK consistency not ordered: ip %.3f /24 %.3f as %.3f",
			pk.IPConsistency, pk.S24Consistency, pk.ASConsistency)
	}
}

func TestIterativeLinking(t *testing.T) {
	ds, _ := generated(t)
	l := NewLinker(ds, DefaultConfig(), 0, nil)
	res := l.Link()
	if len(res.Groups) == 0 {
		t.Fatal("no linked groups")
	}
	// Paper: 39.4% of eligible invalid certs linked. Accept a broad band.
	frac := res.LinkedFraction()
	if frac < 0.2 || frac > 0.75 {
		t.Errorf("linked fraction = %.3f", frac)
	}
	// Timestamps must have been rejected by the AS-consistency threshold.
	rejected := map[Feature]bool{}
	for _, f := range res.Rejected {
		rejected[f] = true
	}
	if !rejected[FeatureNotBefore] || !rejected[FeatureNotAfter] {
		t.Errorf("timestamps not rejected: %v", res.Rejected)
	}
	// No certificate may appear in two groups.
	seen := map[scanstore.CertID]bool{}
	for _, g := range res.Groups {
		for _, id := range g.Certs {
			if seen[id] {
				t.Fatalf("cert %d linked twice", id)
			}
			seen[id] = true
		}
	}
	// Figure 10: group sizes start at 2; PK groups reach large sizes.
	all := GroupSizeCDF(res.Groups, nil)
	if all.Min() < 2 {
		t.Errorf("group of size %v", all.Min())
	}
	pk := FeaturePublicKey
	pkSizes := GroupSizeCDF(res.Groups, &pk)
	if pkSizes.Max() < 5 {
		t.Errorf("largest PK group only %v certs", pkSizes.Max())
	}
}

func TestLifetimeChange(t *testing.T) {
	ds, _ := generated(t)
	l := NewLinker(ds, DefaultConfig(), 0, nil)
	res := l.Link()
	lc := l.EvaluateLifetimeChange(res)
	// §6.4.4: linking reduces the single-scan fraction and raises the mean
	// lifetime (paper: 61% -> 50.7%; 95.4d -> 132.3d).
	if lc.SingleScanFracAfter >= lc.SingleScanFracBefore {
		t.Errorf("single-scan fraction did not drop: %.3f -> %.3f",
			lc.SingleScanFracBefore, lc.SingleScanFracAfter)
	}
	if lc.MeanLifetimeAfter <= lc.MeanLifetimeBefore {
		t.Errorf("mean lifetime did not rise: %.1f -> %.1f",
			lc.MeanLifetimeBefore, lc.MeanLifetimeAfter)
	}
}

func TestGroundTruthPrecision(t *testing.T) {
	ds, truth := generated(t)
	l := NewLinker(ds, DefaultConfig(), 0, nil)
	res := l.Link()
	rep := l.EvaluateTruth(res, truth)
	if rep.GroupsEvaluated == 0 {
		t.Fatal("no groups evaluated against truth")
	}
	// The accepted fields must link with high real precision.
	if rep.GroupPurity() < 0.9 {
		t.Errorf("group purity = %.3f", rep.GroupPurity())
	}
	if rep.CertPrecision < 0.9 {
		t.Errorf("cert precision = %.3f", rep.CertPrecision)
	}
	if rep.PairRecall <= 0 {
		t.Error("pair recall = 0")
	}
}

func TestFieldOrderAblation(t *testing.T) {
	ds, truth := generated(t)
	l := NewLinker(ds, DefaultConfig(), 0, nil)
	good := l.Link()
	goodRep := l.EvaluateTruth(good, truth)
	// Linking with the rejected timestamp fields first must hurt precision.
	bad := l.LinkWithOrder([]Feature{FeatureNotBefore, FeatureNotAfter, FeaturePublicKey, FeatureCommonName, FeatureSAN})
	badRep := l.EvaluateTruth(bad, truth)
	if badRep.GroupPurity() >= goodRep.GroupPurity() {
		t.Errorf("timestamp-first order did not hurt purity: %.3f vs %.3f",
			badRep.GroupPurity(), goodRep.GroupPurity())
	}
}

func TestFeatureValueExtraction(t *testing.T) {
	cert := fig9Cert(t, 42, "unit.example")
	for _, f := range []Feature{FeaturePublicKey, FeatureNotBefore, FeatureNotAfter, FeatureCommonName, FeatureIssuerSerial} {
		if _, ok := Value(cert, f); !ok {
			t.Errorf("feature %v missing on plain cert", f)
		}
	}
	for _, f := range []Feature{FeatureSAN, FeatureCRL, FeatureAIA, FeatureOCSP, FeatureOID} {
		if v, ok := Value(cert, f); ok {
			t.Errorf("feature %v unexpectedly present: %q", f, v)
		}
	}
	empty := fig9Cert(t, 43, "")
	if _, ok := Value(empty, FeatureCommonName); ok {
		t.Error("empty CN treated as a linkable value")
	}
}

func TestIPFormattedCN(t *testing.T) {
	if !IPFormattedCN(fig9Cert(t, 44, "192.168.1.1")) {
		t.Error("192.168.1.1 not detected as IP CN")
	}
	if IPFormattedCN(fig9Cert(t, 45, "fritz.box")) {
		t.Error("fritz.box detected as IP CN")
	}
}

func TestFeatureStrings(t *testing.T) {
	for _, f := range AllFeatures() {
		if f.String() == "" {
			t.Errorf("feature %d has empty label", int(f))
		}
	}
	if Feature(99).String() != "Feature(99)" {
		t.Errorf("unknown feature label = %q", Feature(99).String())
	}
}
