package analysis

import (
	"reflect"
	"sync"
	"testing"

	"securepki/internal/devicesim"
	"securepki/internal/netsim"
	"securepki/internal/scanner"
	"securepki/internal/scanstore"
	"securepki/internal/truststore"
	"securepki/internal/x509lite"
)

// The analysis tests share one generated corpus: building worlds is the
// expensive part, and every analysis reads it without mutation.
var (
	fixtureOnce sync.Once
	fixture     *Dataset
	fixtureErr  error
)

func dataset(t *testing.T) *Dataset {
	t.Helper()
	fixtureOnce.Do(func() {
		wcfg := devicesim.DefaultConfig()
		wcfg.NumDevices = 2200
		wcfg.NumSites = 950
		world, err := devicesim.BuildWorld(wcfg)
		if err != nil {
			fixtureErr = err
			return
		}
		scfg := scanner.DefaultConfig()
		scfg.UMichScans = 18
		scfg.Rapid7Scans = 9
		camp, err := scanner.New(world, scfg)
		if err != nil {
			fixtureErr = err
			return
		}
		corpus, _, err := camp.Run(0)
		if err != nil {
			fixtureErr = err
			return
		}
		store := truststore.NewStore()
		for _, r := range world.Roots() {
			store.AddRoot(r)
		}
		corpus.ValidateWorkers(store, 0)
		fixture = NewDatasetWorkers(corpus, world.Internet, 0)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

// TestReportsComputeOnce: ASDiversity, Longevity, Issuers and KeySharing
// compute once per argument. Goroutines asking for them at once all get
// the one report, equal to the shared fixture's; asking again allocates
// nothing and hands back that report; a new argument is a new report.
func TestReportsComputeOnce(t *testing.T) {
	shared := dataset(t)
	d := NewDatasetWorkers(shared.Corpus, shared.Internet, 0)
	type reports struct {
		as      ASDiversityReport
		lon     LongevityReport
		issuers IssuerReport
		keys    KeySharingReport
	}
	all := func(d *Dataset) reports {
		return reports{d.ASDiversity(5), d.Longevity(), d.Issuers(5), d.KeySharing()}
	}
	got := make([]reports, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = all(d)
		}()
	}
	wg.Wait()
	want := all(shared)
	for g, r := range got {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("goroutine %d got reports that differ from the fixture's", g)
		}
		if r.lon.ValidPeriods != got[0].lon.ValidPeriods || &r.issuers.TopInvalid[0] != &got[0].issuers.TopInvalid[0] {
			t.Fatalf("goroutine %d got a report of its own", g)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { all(d) }); allocs != 0 {
		t.Errorf("a second call of the four reports allocates %.0f times, want 0", allocs)
	}
	if top1 := d.Issuers(1); len(top1.TopInvalid) != 1 || len(got[0].issuers.TopInvalid) != 5 {
		t.Errorf("Issuers(1) lists %d invalid issuers, Issuers(5) %d", len(top1.TopInvalid), len(got[0].issuers.TopInvalid))
	}
}

func TestValidationBreakdownShape(t *testing.T) {
	d := dataset(t)
	vb := d.Validation()
	if vb.Total == 0 {
		t.Fatal("no observed certificates")
	}
	// Paper: 87.9% invalid overall; the scaled corpus lands 85–95%.
	if vb.InvalidFraction < 0.80 || vb.InvalidFraction > 0.97 {
		t.Errorf("invalid fraction = %.3f", vb.InvalidFraction)
	}
	// Paper: 88.0% self-signed, 11.99% untrusted.
	if vb.SelfSignedOfInvalid < 0.80 || vb.SelfSignedOfInvalid > 0.95 {
		t.Errorf("self-signed of invalid = %.3f", vb.SelfSignedOfInvalid)
	}
	if vb.UntrustedOfInvalid < 0.04 || vb.UntrustedOfInvalid > 0.20 {
		t.Errorf("untrusted of invalid = %.3f", vb.UntrustedOfInvalid)
	}
}

func TestCertCountsPerScan(t *testing.T) {
	d := dataset(t)
	counts := d.CertCounts()
	if len(counts) != d.Corpus.NumScans() {
		t.Fatalf("counts for %d scans", len(counts))
	}
	mean := MeanInvalidFraction(counts)
	// Paper: per-scan invalid fraction 59.6%–73.7%, mean 65%.
	if mean < 0.5 || mean > 0.8 {
		t.Errorf("mean per-scan invalid fraction = %.3f", mean)
	}
	// Figure 2: populations grow over time within each operator's series.
	firstByOp := map[scanstore.Operator]ScanCount{}
	lastByOp := map[scanstore.Operator]ScanCount{}
	for _, c := range counts {
		if _, ok := firstByOp[c.Operator]; !ok {
			firstByOp[c.Operator] = c
		}
		lastByOp[c.Operator] = c
	}
	for op, first := range firstByOp {
		last := lastByOp[op]
		if last.Scan == first.Scan {
			continue
		}
		if last.Invalid <= first.Invalid {
			t.Errorf("%v invalid population did not grow: %d -> %d", op, first.Invalid, last.Invalid)
		}
	}
}

func TestLongevityShape(t *testing.T) {
	d := dataset(t)
	rep := d.Longevity()

	// Figure 3: valid median ~1.1y (our products: 365d), p90 ~3y; invalid
	// median ~20 years.
	if med := rep.ValidPeriods.Median(); med < 300 || med > 500 {
		t.Errorf("valid validity median = %.0f days", med)
	}
	if med := rep.InvalidPeriods.Median(); med < 10*365 || med > 28*365 {
		t.Errorf("invalid validity median = %.0f days", med)
	}
	if p90 := rep.InvalidPeriods.Percentile(0.9); p90 < 20*365 {
		t.Errorf("invalid validity p90 = %.0f days", p90)
	}
	// Paper: 5.38% negative.
	if rep.NegativePeriodFrac < 0.01 || rep.NegativePeriodFrac > 0.12 {
		t.Errorf("negative period fraction = %.3f", rep.NegativePeriodFrac)
	}

	// Figure 4: invalid lifetime median one day; valid much longer.
	if med := rep.InvalidLifetimes.Median(); med != 1 {
		t.Errorf("invalid lifetime median = %.0f days, want 1", med)
	}
	if med := rep.ValidLifetimes.Median(); med < 100 {
		t.Errorf("valid lifetime median = %.0f days", med)
	}
	if rep.SingleScanInvalidFrac < 0.4 {
		t.Errorf("single-scan invalid fraction = %.3f", rep.SingleScanInvalidFrac)
	}

	// Figure 5: bimodal gap — most ephemeral certs minted within days of
	// first sighting, a fat tail >1000 days, a small negative sliver.
	if rep.SameDayFrac+rep.NotBeforeGap.At(4)-rep.NotBeforeGap.At(0) < 0.3 {
		t.Errorf("fresh-gap mass too small: same-day %.3f", rep.SameDayFrac)
	}
	if rep.Beyond1000Frac < 0.05 || rep.Beyond1000Frac > 0.5 {
		t.Errorf("beyond-1000-days fraction = %.3f", rep.Beyond1000Frac)
	}
	if rep.NegativeGapFrac < 0.001 || rep.NegativeGapFrac > 0.15 {
		t.Errorf("negative gap fraction = %.3f", rep.NegativeGapFrac)
	}
}

func TestKeySharingShape(t *testing.T) {
	d := dataset(t)
	rep := d.KeySharing()
	// Paper: 47% of invalid certs share a key; Lancom's single key holds
	// 6.5% of all invalid certs.
	if rep.SharingInvalidFrac < 0.25 || rep.SharingInvalidFrac > 0.75 {
		t.Errorf("invalid key-sharing fraction = %.3f", rep.SharingInvalidFrac)
	}
	if rep.TopKeyInvalidShare < 0.02 || rep.TopKeyInvalidShare > 0.2 {
		t.Errorf("top invalid key share = %.3f", rep.TopKeyInvalidShare)
	}
	if rep.SharingInvalidFrac <= rep.SharingValidFrac {
		t.Errorf("invalid certs must share keys more: %.3f vs %.3f",
			rep.SharingInvalidFrac, rep.SharingValidFrac)
	}
	// Every share curve must dominate y=x.
	for _, p := range rep.InvalidCurve {
		if p.Y < p.X-1e-9 {
			t.Fatalf("invalid share curve below diagonal at %+v", p)
		}
	}
}

func TestTopIssuersTable(t *testing.T) {
	d := dataset(t)
	rep := d.Issuers(5)
	if len(rep.TopValid) != 5 || len(rep.TopInvalid) != 5 {
		t.Fatalf("top-5 lists: %d valid, %d invalid", len(rep.TopValid), len(rep.TopInvalid))
	}
	// Valid head must be a known CA (Zipf rank 1: Go Daddy).
	if rep.TopValid[0].Label != "Go Daddy Secure Certification Authority" {
		t.Errorf("top valid issuer = %q", rep.TopValid[0].Label)
	}
	// Invalid list must feature the paper's device vendors.
	found := map[string]bool{}
	for _, item := range rep.TopInvalid {
		found[item.Label] = true
	}
	for _, want := range []string{"www.lancom-systems.de", "192.168.1.1"} {
		if !found[want] {
			t.Errorf("top invalid issuers missing %q: %v", want, rep.TopInvalid)
		}
	}
}

func TestIssuerKeyDiversity(t *testing.T) {
	d := dataset(t)
	rep := d.Issuers(5)
	// Paper: 5 valid signing keys cover half of valid certs; invalid parent
	// keys are vastly more numerous relative to their population.
	if rep.ValidKeysForHalf > 8 {
		t.Errorf("valid keys for half = %d", rep.ValidKeysForHalf)
	}
	// The paper finds 1.7M invalid parent keys vs 1,477 valid signing keys:
	// per-device issuers (PlayBook MACs) swamp the CA population. At
	// fixture scale the absolute counts are small, so check that invalid
	// parent keys are numerous and that no small set covers them.
	if rep.InvalidParentKeys < 25 {
		t.Errorf("invalid parent keys = %d, want many", rep.InvalidParentKeys)
	}
	if rep.InvalidTop5KeyCoverage > 0.9 {
		t.Errorf("invalid top-5 key coverage = %.3f, want well below 1", rep.InvalidTop5KeyCoverage)
	}
}

func TestHostDiversityShape(t *testing.T) {
	d := dataset(t)
	rep := d.HostDiversity()
	// Paper Figure 7: most certs on one IP; invalid p99 ≈ 2, valid p99 ≈ 11,
	// with a long valid tail (CA certs served everywhere).
	if frac := rep.InvalidAvgIPs.At(1); frac < 0.9 {
		t.Errorf("invalid certs on <=1 IP = %.3f", frac)
	}
	if p99i, p99v := rep.InvalidAvgIPs.Percentile(0.99), rep.ValidAvgIPs.Percentile(0.99); p99i >= p99v {
		t.Errorf("invalid p99 (%.1f) not below valid p99 (%.1f)", p99i, p99v)
	}
	if rep.MaxIPsForValidCert < 50 {
		t.Errorf("no widely-replicated valid cert: max %d IPs", rep.MaxIPsForValidCert)
	}
	if rep.OverTwoIPsInvalidFrac < 0.001 || rep.OverTwoIPsInvalidFrac > 0.1 {
		t.Errorf("invalid certs on >2 IPs = %.4f (paper: 1.6%%)", rep.OverTwoIPsInvalidFrac)
	}
}

func TestASDiversityShape(t *testing.T) {
	d := dataset(t)
	rep := d.ASDiversity(5)
	// Paper: 18% of invalid certs come from one AS (Deutsche Telekom).
	if rep.TopASInvalidShare < 0.08 || rep.TopASInvalidShare > 0.4 {
		t.Errorf("top AS invalid share = %.3f", rep.TopASInvalidShare)
	}
	if len(rep.TopInvalidASes) == 0 || rep.TopInvalidASes[0].Label != "#3320 Deutsche Telekom AG (DEU)" {
		t.Errorf("top invalid AS = %v", rep.TopInvalidASes)
	}
	// Invalid concentrates into fewer ASes than valid for 70% coverage.
	if rep.ASesFor70Invalid >= rep.ASesFor70Valid {
		t.Errorf("invalid needs %d ASes for 70%%, valid %d — wrong order",
			rep.ASesFor70Invalid, rep.ASesFor70Valid)
	}
	// Table 2: invalid overwhelmingly transit/access (paper 94.1%).
	if got := rep.InvalidByType[netsim.TransitAccess]; got < 0.8 {
		t.Errorf("invalid transit/access share = %.3f", got)
	}
	if got := rep.ValidByType[netsim.Content]; got < 0.2 {
		t.Errorf("valid content share = %.3f", got)
	}
	if out := FormatASTypeTable(rep); len(out) == 0 {
		t.Error("empty AS type table")
	}
}

func TestDeviceTypesTable(t *testing.T) {
	d := dataset(t)
	rows := d.DeviceTypes(50)
	if len(rows) < 4 {
		t.Fatalf("device classes found: %d", len(rows))
	}
	byClass := map[string]float64{}
	var total float64
	for _, r := range rows {
		byClass[r.Class] = r.Fraction
		total += r.Fraction
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("fractions sum to %.4f", total)
	}
	// Paper Table 4: routers/modems dominate (45.3%), unknown second (32%).
	if rows[0].Class != ClassRouter {
		t.Errorf("largest class = %q, want router", rows[0].Class)
	}
	if byClass[ClassRouter] < 0.3 {
		t.Errorf("router share = %.3f", byClass[ClassRouter])
	}
	if byClass[ClassUnknown] < 0.05 {
		t.Errorf("unknown share = %.3f", byClass[ClassUnknown])
	}
}

func TestScanDiscrepancy(t *testing.T) {
	d := dataset(t)
	days := d.CoScanDays()
	if len(days) == 0 {
		t.Fatal("no co-scan days")
	}
	rep := d.ScanDiscrepancy(days[0])
	if rep.UMichHosts == 0 || rep.Rapid7Hosts == 0 {
		t.Fatalf("empty scans on co-scan day: %d / %d", rep.UMichHosts, rep.Rapid7Hosts)
	}
	// Rapid7's blacklist is ~5x bigger, so its scan must be smaller.
	if rep.Rapid7Deficit() < 0.02 {
		t.Errorf("Rapid7 deficit = %.3f", rep.Rapid7Deficit())
	}
	if len(rep.PerSlash8) == 0 {
		t.Fatal("no per-/8 rows")
	}
	// Missing hosts must be spread over the space, not confined to one /8.
	withUnique := 0
	for _, row := range rep.PerSlash8 {
		if row.UMichOnlyFrac > 0 || row.Rapid7OnlyFrac > 0 {
			withUnique++
		}
	}
	if withUnique < len(rep.PerSlash8)/4 {
		t.Errorf("unique hosts confined to %d/%d of /8s", withUnique, len(rep.PerSlash8))
	}
}

func TestBlacklistAttribution(t *testing.T) {
	d := dataset(t)
	rep := d.BlacklistAttribution()
	if rep.CoScanDays == 0 {
		t.Fatal("no co-scan days")
	}
	// Rapid7's blacklist is bigger: more prefixes always-missing from its
	// scans than from UMich's (paper: 11,624 vs 1,906).
	if rep.PrefixesMissingFromRapid7 <= rep.PrefixesMissingFromUMich {
		t.Errorf("missing-prefix counts: R7 %d vs UM %d — wrong order",
			rep.PrefixesMissingFromRapid7, rep.PrefixesMissingFromUMich)
	}
	// Blacklisting must explain the majority of one-scan-only hosts
	// (paper: 74.0% and 62.6%).
	if rep.ExplainedUMichOnly < 0.3 {
		t.Errorf("UMich-only explained = %.3f", rep.ExplainedUMichOnly)
	}
}

func TestClassifyDeviceRules(t *testing.T) {
	cases := []struct {
		issuerCN, subjectCN, want string
	}{
		{"www.lancom-systems.de", "LANCOM 1781A", ClassRouter},
		{"remotewd.com", "WD2GO 123456", ClassStorage},
		{"192.168.1.1", "192.168.1.1", ClassRouter},
		{"SecureGate CA", "vpn 000123", ClassVPN},
		{"VMware", "esx 000042", ClassRemoteAdmin},
		{"PerimeterOS", "fw 000009", ClassFirewall},
		{"IPCAM", "IPCAM", ClassIPCamera},
		{"Embedded HTTPS Server", "Embedded HTTPS Server", ClassOther},
		{"xj9-qqq", "gizmo", ClassUnknown},
		{"", "", ClassUnknown},
		{"203.0.113.7", "203.0.113.7", ClassRouter}, // bare IP CN
	}
	for _, tc := range cases {
		c := &x509lite.Certificate{
			Issuer:  x509lite.Name{CommonName: tc.issuerCN},
			Subject: x509lite.Name{CommonName: tc.subjectCN},
		}
		if got := ClassifyDevice(c); got != tc.want {
			t.Errorf("ClassifyDevice(%q, %q) = %q, want %q", tc.issuerCN, tc.subjectCN, got, tc.want)
		}
	}
}

func TestLooksLikeIPv4(t *testing.T) {
	yes := []string{"1.2.3.4", "192.168.1.1", "255.255.255.255"}
	no := []string{"", "fritz.box", "1.2.3", "1.2.3.4.5", "a.b.c.d", "1..2.3"}
	for _, s := range yes {
		if !x509lite.LooksLikeIPv4(s) {
			t.Errorf("LooksLikeIPv4(%q) = false", s)
		}
	}
	for _, s := range no {
		if x509lite.LooksLikeIPv4(s) {
			t.Errorf("LooksLikeIPv4(%q) = true", s)
		}
	}
}
