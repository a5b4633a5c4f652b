// Command linkdev runs only the §6 linking study: the scan-duplicate filter,
// Table 5 (feature uniqueness), Table 6 (per-field evaluation), the final
// iterative linking with its group-size distribution (Figure 10), the §6.4.4
// lifetime comparison and the ground-truth precision the paper lacked.
//
// Usage:
//
//	linkdev [-small] [-seed 1] [-max-ips 2] [-overlap 1] [-min-as 0.9]
//	linkdev -corpus corpus.spki -prefixes corpus.spki.prefix2as
//	        -asinfo corpus.spki.asinfo [-max-ips 2] [-overlap 1] [-min-as 0.9]
//
// -corpus reruns the study over a snapshot written by scangen, certscan or
// analyze -save-corpus, with the network view taken from the RouteViews/
// CAIDA-style dumps of scangen -dump-net instead of a regenerated world.
package main

import (
	"flag"
	"fmt"
	"os"

	"securepki/internal/analysis"
	"securepki/internal/core"
	"securepki/internal/linking"
	"securepki/internal/netsim"
	"securepki/internal/snapshot"
	"securepki/internal/truststore"
)

func main() {
	var (
		corpus   = flag.String("corpus", "", "run over a corpus written by scangen instead of regenerating (requires -prefixes/-asinfo)")
		prefixes = flag.String("prefixes", "", "prefix2as dump from scangen -dump-net")
		asinfo   = flag.String("asinfo", "", "AS-info dump from scangen -dump-net")
		small    = flag.Bool("small", false, "use the reduced sizing")
		seed     = flag.Uint64("seed", 0, "world seed (0 = default)")
		maxIPs   = flag.Int("max-ips", 2, "§6.2 uniqueness threshold (addresses per scan)")
		overlap  = flag.Int("overlap", 1, "allowed lifetime overlap in scans")
		minAS    = flag.Float64("min-as", 0.9, "minimum AS-level consistency to accept a field")
	)
	flag.Parse()

	lcfg := linking.Config{MaxIPsPerScan: *maxIPs, MaxOverlapScans: *overlap, MinASConsistency: *minAS}

	if *corpus != "" {
		runFromCorpus(*corpus, *prefixes, *asinfo, lcfg)
		return
	}

	cfg := core.DefaultConfig()
	if *small {
		cfg = core.SmallConfig()
	}
	if *seed != 0 {
		cfg.World.Seed = *seed
	}
	cfg.Linking = lcfg

	p, err := core.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "linkdev:", err)
		os.Exit(1)
	}
	for _, id := range []string{"table5", "table6", "fig10", "s644", "truth"} {
		e, _ := core.Find(id)
		fmt.Printf("== %s — %s\n%s\n", e.ID, e.Title, e.Run(p))
	}
}

// runFromCorpus reruns the §6 study over previously collected datasets: the
// corpus plus the RouteViews-style network dumps, with no access to the
// generator — the way an external researcher would consume scangen output.
// Validation uses an empty trust store, so every self-signed/vendor-signed
// certificate classifies invalid exactly as it would for a client that
// trusts none of the synthetic roots.
func runFromCorpus(corpusPath, prefixPath, asinfoPath string, lcfg linking.Config) {
	if prefixPath == "" || asinfoPath == "" {
		fmt.Fprintln(os.Stderr, "linkdev: -corpus requires -prefixes and -asinfo")
		os.Exit(2)
	}
	cf, err := os.Open(corpusPath)
	if err != nil {
		fatal(err)
	}
	defer cf.Close()
	corpus, err := snapshot.Read(cf, snapshot.Options{})
	if err != nil {
		fatal(err)
	}
	pf, err := os.Open(prefixPath)
	if err != nil {
		fatal(err)
	}
	defer pf.Close()
	af, err := os.Open(asinfoPath)
	if err != nil {
		fatal(err)
	}
	defer af.Close()
	inet, err := netsim.ReadRouteViews(pf, af)
	if err != nil {
		fatal(err)
	}

	corpus.Validate(truststore.NewStore())
	ds := analysis.NewDataset(corpus, inet)
	linker := linking.NewLinker(ds, lcfg, 0, nil)

	fmt.Printf("corpus: %d certs, %d scans; eligible invalid: %d (excluded %d)\n\n",
		corpus.NumCerts(), corpus.NumScans(), linker.EligibleCount(), linker.ExcludedShared())
	fmt.Println("== Table 5 — feature non-uniqueness")
	for _, s := range linker.FeatureUniqueness() {
		fmt.Printf("%-14s non-unique %5.1f%%  present %5.1f%%\n", s.Feature, 100*s.NonUniqueFrac, 100*s.PresentFrac)
	}
	fmt.Println("\n== Table 6 — per-field evaluation")
	for _, ev := range linker.EvaluateAll() {
		fmt.Printf("%-14s linked %6d  IP %5.1f%%  /24 %5.1f%%  AS %5.1f%%\n",
			ev.Feature, ev.TotalLinked, 100*ev.IPConsistency, 100*ev.S24Consistency, 100*ev.ASConsistency)
	}
	res := linker.Link()
	fmt.Printf("\n== Iterative linking\nlinked %d certs (%.1f%%) into %d groups via %v; rejected %v\n",
		res.LinkedCerts, 100*res.LinkedFraction(), len(res.Groups), res.FieldOrder, res.Rejected)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "linkdev:", err)
	os.Exit(1)
}
