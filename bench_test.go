package securepki

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. The expensive
// part — generating the world and scanning it — happens once, outside every
// timer; each bench then measures regenerating its result from the corpus
// and reports the experiment's headline number as a custom metric so `go
// test -bench` output doubles as a results table.

import (
	"crypto/ed25519"
	"math/big"
	"sync"
	"testing"
	"time"

	"securepki/internal/linking"
	"securepki/internal/truststore"
	"securepki/internal/x509lite"
)

var (
	benchOnce sync.Once
	benchPipe *Pipeline
	benchErr  error
)

func pipeline(b *testing.B) *Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		benchPipe, benchErr = Run(DefaultConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchPipe
}

func BenchmarkFigure1ScanDiscrepancy(b *testing.B) {
	p := pipeline(b)
	days := p.Dataset.CoScanDays()
	if len(days) == 0 {
		b.Fatal("no co-scan days")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var deficit float64
	for i := 0; i < b.N; i++ {
		rep := p.Dataset.ScanDiscrepancy(days[0])
		deficit = rep.Rapid7Deficit()
	}
	b.ReportMetric(100*deficit, "rapid7-deficit-%")
}

func BenchmarkSection41Blacklist(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var explained float64
	for i := 0; i < b.N; i++ {
		rep := p.Dataset.BlacklistAttribution()
		explained = rep.ExplainedUMichOnly
	}
	b.ReportMetric(100*explained, "explained-%")
}

func BenchmarkFigure2CertCounts(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		counts := p.Dataset.CertCounts()
		var sum float64
		for _, c := range counts {
			sum += c.InvalidFraction()
		}
		mean = sum / float64(len(counts))
	}
	b.ReportMetric(100*mean, "per-scan-invalid-%")
}

func BenchmarkSection42Validation(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = p.Dataset.Validation().InvalidFraction
	}
	b.ReportMetric(100*frac, "invalid-%")
}

func BenchmarkFigure3ValidityPeriods(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var med float64
	for i := 0; i < b.N; i++ {
		med = p.Dataset.Longevity().InvalidPeriods.Median()
	}
	b.ReportMetric(med/365.25, "invalid-median-years")
}

func BenchmarkFigure4Lifetimes(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var med float64
	for i := 0; i < b.N; i++ {
		med = p.Dataset.Longevity().InvalidLifetimes.Median()
	}
	b.ReportMetric(med, "invalid-median-days")
}

func BenchmarkFigure5NotBeforeGap(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var far float64
	for i := 0; i < b.N; i++ {
		far = p.Dataset.Longevity().Beyond1000Frac
	}
	b.ReportMetric(100*far, "gap>1000d-%")
}

func BenchmarkFigure6KeySharing(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sharing float64
	for i := 0; i < b.N; i++ {
		sharing = p.Dataset.KeySharing().SharingInvalidFrac
	}
	b.ReportMetric(100*sharing, "sharing-%")
}

func BenchmarkTable1TopIssuers(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		rep := p.Dataset.Issuers(5)
		rows = len(rep.TopValid) + len(rep.TopInvalid)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkSection53IssuerKeys(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var keys int
	for i := 0; i < b.N; i++ {
		keys = p.Dataset.Issuers(5).InvalidParentKeys
	}
	b.ReportMetric(float64(keys), "invalid-parent-keys")
}

func BenchmarkFigure7HostDiversity(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var p99 float64
	for i := 0; i < b.N; i++ {
		p99 = p.Dataset.HostDiversity().ValidAvgIPs.Percentile(0.99)
	}
	b.ReportMetric(p99, "valid-p99-ips")
}

func BenchmarkFigure8ASDiversity(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var share float64
	for i := 0; i < b.N; i++ {
		share = p.Dataset.ASDiversity(5).TopASInvalidShare
	}
	b.ReportMetric(100*share, "top-as-invalid-%")
}

func BenchmarkTable2ASTypes(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var transit float64
	for i := 0; i < b.N; i++ {
		rep := p.Dataset.ASDiversity(5)
		for typ, frac := range rep.InvalidByType {
			if typ.String() == "Transit/Access" {
				transit = frac
			}
		}
	}
	b.ReportMetric(100*transit, "invalid-transit-%")
}

func BenchmarkTable3TopASes(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(p.Dataset.ASDiversity(5).TopInvalidASes)
	}
	b.ReportMetric(float64(n), "rows")
}

func BenchmarkTable4DeviceTypes(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var router float64
	for i := 0; i < b.N; i++ {
		rows := p.Dataset.DeviceTypes(50)
		if len(rows) > 0 {
			router = rows[0].Fraction
		}
	}
	b.ReportMetric(100*router, "top-class-%")
}

func BenchmarkTable5FeatureUniqueness(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var pk float64
	for i := 0; i < b.N; i++ {
		for _, s := range p.Linker.FeatureUniqueness() {
			if s.Feature == linking.FeaturePublicKey {
				pk = s.NonUniqueFrac
			}
		}
	}
	b.ReportMetric(100*pk, "pk-nonunique-%")
}

func BenchmarkFigure9OverlapRule(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var groups int
	for i := 0; i < b.N; i++ {
		groups = len(p.Linker.LinkOn(linking.FeaturePublicKey, nil))
	}
	b.ReportMetric(float64(groups), "pk-groups")
}

func BenchmarkTable6LinkingConsistency(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var asCons float64
	for i := 0; i < b.N; i++ {
		for _, ev := range p.Linker.EvaluateAll() {
			if ev.Feature == linking.FeaturePublicKey {
				asCons = ev.ASConsistency
			}
		}
	}
	b.ReportMetric(100*asCons, "pk-as-consistency-%")
}

func BenchmarkFigure10GroupSizes(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		res := p.Linker.Link()
		frac = res.LinkedFraction()
	}
	b.ReportMetric(100*frac, "linked-%")
}

func BenchmarkSection644LifetimeChange(b *testing.B) {
	p := pipeline(b)
	res := p.LinkResult
	b.ReportAllocs()
	b.ResetTimer()
	var after float64
	for i := 0; i < b.N; i++ {
		after = p.Linker.EvaluateLifetimeChange(res).MeanLifetimeAfter
	}
	b.ReportMetric(after, "mean-lifetime-after-days")
}

func BenchmarkSection72Trackable(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = p.Tracker.Trackable(Year).Gain()
	}
	b.ReportMetric(100*gain, "gain-%")
}

func BenchmarkSection73Movement(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var moves int
	for i := 0; i < b.N; i++ {
		moves = p.Tracker.Movement(Year, 10).DevicesChanging
	}
	b.ReportMetric(float64(moves), "devices-changing-as")
}

func BenchmarkFigure11Reassignment(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var static int
	for i := 0; i < b.N; i++ {
		static = p.Tracker.Reassignment(Year, 10).MostlyStaticASes
	}
	b.ReportMetric(float64(static), "mostly-static-ases")
}

// --- ablations -----------------------------------------------------------

// AblationOverlapTolerance: the §6.3.2 rule allows one scan of lifetime
// overlap because devices renumber mid-scan. Zero tolerance loses links;
// looser tolerance risks merging distinct devices.
func BenchmarkAblationOverlapTolerance(b *testing.B) {
	p := pipeline(b)
	for _, overlap := range []int{0, 1, 2} {
		b.Run(map[int]string{0: "none", 1: "paper", 2: "loose"}[overlap], func(b *testing.B) {
			cfg := linking.DefaultConfig()
			cfg.MaxOverlapScans = overlap
			linker := linking.NewLinker(p.Dataset, cfg, 0, nil)
			b.ResetTimer()
			var linked float64
			var purity float64
			for i := 0; i < b.N; i++ {
				res := linker.Link()
				linked = res.LinkedFraction()
				purity = linker.EvaluateTruth(res, p.Truth).GroupPurity()
			}
			b.ReportMetric(100*linked, "linked-%")
			b.ReportMetric(100*purity, "purity-%")
		})
	}
}

// AblationUniquenessThreshold: §6.2's two-IP rule. Threshold 1 drops every
// mid-scan renumbering; large thresholds admit shared (fleet) certificates.
func BenchmarkAblationUniquenessThreshold(b *testing.B) {
	p := pipeline(b)
	for _, maxIPs := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "strict", 2: "paper", 4: "loose"}[maxIPs], func(b *testing.B) {
			cfg := linking.DefaultConfig()
			cfg.MaxIPsPerScan = maxIPs
			b.ResetTimer()
			var eligible int
			for i := 0; i < b.N; i++ {
				linker := linking.NewLinker(p.Dataset, cfg, 0, nil)
				eligible = linker.EligibleCount()
			}
			b.ReportMetric(float64(eligible), "eligible-certs")
		})
	}
}

// AblationFieldOrder: §6.4.3 links in descending AS-consistency order.
// Linking on the rejected timestamp fields first pollutes groups.
func BenchmarkAblationFieldOrder(b *testing.B) {
	p := pipeline(b)
	orders := map[string][]linking.Feature{
		"paper-order": nil, // resolved by Link()
		"timestamps-first": {
			linking.FeatureNotBefore, linking.FeatureNotAfter,
			linking.FeaturePublicKey, linking.FeatureCommonName, linking.FeatureSAN,
		},
	}
	for name, order := range orders {
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			var purity float64
			for i := 0; i < b.N; i++ {
				var res linking.Result
				if order == nil {
					res = p.Linker.Link()
				} else {
					res = p.Linker.LinkWithOrder(order)
				}
				purity = p.Linker.EvaluateTruth(res, p.Truth).GroupPurity()
			}
			b.ReportMetric(100*purity, "purity-%")
		})
	}
}

// AblationSigning: certificate generation cost with real Ed25519 signatures
// versus the signing operation alone versus pure DER encoding (signature
// bytes precomputed) — the trade DESIGN.md makes by choosing Ed25519 over
// RSA for the simulated population.
func BenchmarkAblationSigning(b *testing.B) {
	seed := make([]byte, ed25519.SeedSize)
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	tmpl := &x509lite.Template{
		Version:      3,
		SerialNumber: big.NewInt(42),
		Subject:      x509lite.Name{CommonName: "bench.device"},
		Issuer:       x509lite.Name{CommonName: "bench.device"},
		NotBefore:    time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2033, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	der, err := x509lite.CreateCertificate(tmpl, pub, priv)
	if err != nil {
		b.Fatal(err)
	}
	cert, err := x509lite.Parse(der)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("create-signed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := x509lite.CreateCertificate(tmpl, pub, priv); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sign-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ed25519.Sign(priv, cert.RawTBS)
		}
	})
	b.Run("verify-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !ed25519.Verify(pub, cert.RawTBS, cert.Signature) {
				b.Fatal("verify failed")
			}
		}
	})
}

// --- parallel execution layer --------------------------------------------

// benchValidate re-validates the full corpus against a fresh root store each
// iteration (so the issuer-chain cache starts cold, as in a real run) and
// reports throughput. Serial and parallel produce identical counts — the
// equivalence tests enforce it — so the two benches differ only in speed.
func benchValidate(b *testing.B, workers int) {
	p := pipeline(b)
	roots := p.World.Roots()
	numCerts := p.Corpus.NumCerts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := truststore.NewStore()
		for _, r := range roots {
			store.AddRoot(r)
		}
		p.Corpus.ValidateWorkers(store, workers)
	}
	b.ReportMetric(float64(numCerts*b.N)/b.Elapsed().Seconds(), "certs/sec")
}

func BenchmarkValidateSerial(b *testing.B)   { benchValidate(b, 1) }
func BenchmarkValidateParallel(b *testing.B) { benchValidate(b, 0) }

// BenchmarkLinkerParallel runs the full §6 pipeline (eligibility filter,
// per-field evaluation, iterative linking) at Workers=1 versus GOMAXPROCS.
func BenchmarkLinkerParallel(b *testing.B) {
	p := pipeline(b)
	for _, c := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(c.name, func(b *testing.B) {
			numCerts := p.Corpus.NumCerts()
			b.ReportAllocs()
			b.ResetTimer()
			var linked int
			for i := 0; i < b.N; i++ {
				linker := linking.NewLinker(p.Dataset, linking.DefaultConfig(), c.workers, nil)
				linked = linker.Link().LinkedCerts
			}
			b.ReportMetric(float64(linked), "linked-certs")
			b.ReportMetric(float64(numCerts*b.N)/b.Elapsed().Seconds(), "certs/sec")
		})
	}
}

// BenchmarkEndToEndSmall measures the whole pipeline at the reduced sizing:
// world generation, both campaigns, validation, linking and tracking.
func BenchmarkEndToEndSmall(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(SmallConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
