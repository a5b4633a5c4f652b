package securepki

// One loop over the experiment registry, plus ablation benches for the
// design choices DESIGN.md calls out and the validate, linker and end-to-end
// benches. The expensive part — building the DefaultConfig pipeline —
// happens once, outside every timer; each experiment sub-benchmark then
// measures rendering its row from the stages' outputs.

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

// BenchmarkExperiments times each registry row, one sub-benchmark per
// Experiments() entry, rendering its text from the finished pipeline.
func BenchmarkExperiments(b *testing.B) {
	p := pipeline(b)
	for _, e := range Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experimentText = e.Run(p)
			}
		})
	}
}

// experimentText keeps the last rendered row live, so the compiler cannot
// drop the call being timed.
var experimentText string

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
