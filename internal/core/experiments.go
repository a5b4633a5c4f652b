package core

import (
	"fmt"
	"strings"

	"securepki/internal/analysis"
	"securepki/internal/certlint"
	"securepki/internal/linking"
	"securepki/internal/stats"
	"securepki/internal/truststore"
)

// Experiment regenerates one table or figure of the paper's evaluation.
type Experiment struct {
	// ID is the figure/table identifier, e.g. "fig3", "table6", "s644".
	ID string
	// Title names the result.
	Title string
	// Paper states the quantity the original reports.
	Paper string
	// Run renders the measured result over a completed pipeline.
	Run func(p *Pipeline) string
}

// Experiments returns the full registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID: "fig1", Title: "Scan discrepancy per /8 (co-scan day)",
			Paper: "missing hosts spread across the whole IP space; Rapid7 scans ~20% smaller",
			Run:   runFig1,
		},
		{
			ID: "s41", Title: "Blacklist attribution of scan discrepancy",
			Paper: "1,906 prefixes always missing from UMich vs 11,624 from Rapid7; blacklists explain 74.0%/62.6% of one-scan-only hosts",
			Run:   runS41,
		},
		{
			ID: "fig2", Title: "Valid/invalid certificates per scan",
			Paper: "both series rise over time; invalid 59.6–73.7% per scan, mean 65.0%",
			Run:   runFig2,
		},
		{
			ID: "s42", Title: "Validation breakdown",
			Paper: "87.9% of unique certs invalid; of those 88.0% self-signed, 11.99% untrusted, 0.01% other",
			Run:   runS42,
		},
		{
			ID: "fig3", Title: "Validity periods CDF",
			Paper: "valid median 1.1y / p90 3.1y; invalid median 20y / p90 25y; 5.38% negative",
			Run:   runFig3,
		},
		{
			ID: "fig4", Title: "Certificate lifetimes CDF",
			Paper: "valid median 274 days; invalid median 1 day (~60% single-scan)",
			Run:   runFig4,
		},
		{
			ID: "fig5", Title: "First-advertised minus NotBefore (ephemeral certs)",
			Paper: "bimodal: ~30% same day, 70% under 4 days, 20% over 1000 days, 2.9% negative",
			Run:   runFig5,
		},
		{
			ID: "fig6", Title: "Public-key sharing",
			Paper: "47% of invalid certs share keys; one Lancom key on 6.5% of all invalid certs",
			Run:   runFig6,
		},
		{
			ID: "table1", Title: "Top issuers (valid vs invalid)",
			Paper: "valid: Go Daddy/RapidSSL/PositiveSSL/GeoTrust; invalid: lancom, 192.168.1.1, empty, remotewd.com, VMware",
			Run:   runTable1,
		},
		{
			ID: "s53", Title: "Issuer key diversity",
			Paper: "5 keys cover half of valid certs (1,477 keys total); invalid top-5 cover 37% (1.7M parent keys)",
			Run:   runS53,
		},
		{
			ID: "fig7", Title: "IPs advertising each certificate",
			Paper: "p99: invalid 2.0 vs valid 11.3; a valid CA cert on 3.6M IPs",
			Run:   runFig7,
		},
		{
			ID: "fig8", Title: "ASes hosting each certificate",
			Paper: "18% of invalid certs from one AS; 165 ASes cover 70% of invalid vs 500 for valid",
			Run:   runFig8,
		},
		{
			ID: "table2", Title: "AS-type breakdown",
			Paper: "invalid 94.1% transit/access; valid 46.6% transit/access + 42.9% content",
			Run:   runTable2,
		},
		{
			ID: "table3", Title: "Top hosting ASes",
			Paper: "valid: GoDaddy/Unified Layer/Amazon; invalid: Deutsche Telekom, Comcast, Vodafone, Telefonica, Korea Telecom",
			Run:   runTable3,
		},
		{
			ID: "table4", Title: "Device types (top-50 invalid issuers)",
			Paper: "45.3% routers/modems, 32% unknown, 6% VPN, 5.7% storage, 4.3% remote admin",
			Run:   runTable4,
		},
		{
			ID: "table5", Title: "Feature non-uniqueness",
			Paper: "NotBefore 67.7%, CN 67.5%, NotAfter 61.4%, PK 47.0%, SAN 19.6%, IN+SN 4.2%",
			Run:   runTable5,
		},
		{
			ID: "fig9", Title: "Lifetime-overlap linking rule",
			Paper: "PK1/PK2 linkable (≤1 scan overlap), PK3 rejected (see linking unit tests for the exact scenario)",
			Run:   runFig9,
		},
		{
			ID: "table6", Title: "Per-field linking evaluation",
			Paper: "PK links most (23.3M; AS-cons 98%); timestamps & IN+SN rejected (<90% AS-cons); CRL/AIA highest IP-cons (~86%)",
			Run:   runTable6,
		},
		{
			ID: "fig10", Title: "Linked group sizes",
			Paper: "62% of groups >2 certs; tail to 413; CRL groups mostly pairs",
			Run:   runFig10,
		},
		{
			ID: "s644", Title: "Lifetime change after linking",
			Paper: "single-scan 61% → 50.7%; mean lifetime 95.4 → 132.3 days",
			Run:   runS644,
		},
		{
			ID: "s72", Title: "Trackable devices",
			Paper: "5,585,965 without linking → 6,750,744 with (+17.2%)",
			Run:   runS72,
		},
		{
			ID: "s73", Title: "Device movement",
			Paper: "718,495 devices change AS (69.7% once); 1,159 bulk transfers incl. Verizon→MCI; 45,450 country moves",
			Run:   runS73,
		},
		{
			ID: "fig11", Title: "IP reassignment policies",
			Paper: "56.3% of ASes >90% static; DT renumbers 76.3% of devices every scan",
			Run:   runFig11,
		},
		{
			ID: "truth", Title: "Ground-truth linking precision (extension)",
			Paper: "the paper lacks ground truth (§8); the simulation provides it",
			Run:   runTruth,
		},
		{
			ID: "lint", Title: "Certificate pathology survey (extension)",
			Paper: "codifies §5's qualitative findings (negative validity, IP/empty subjects, missing revocation info) as registry lints over valid vs invalid populations",
			Run:   runLint,
		},
		{
			ID: "lintcuts", Title: "Lint findings by device class, issuer and AS (extension)",
			Paper: "applies §5.3–§5.5's attribution (issuers, networks, device populations) to the registry's findings",
			Run:   runLintCuts,
		},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func runFig1(p *Pipeline) string {
	days := p.Dataset.CoScanDays()
	if len(days) == 0 {
		return "no co-scan days in campaign"
	}
	rep := p.Dataset.ScanDiscrepancy(days[0])
	var b strings.Builder
	fmt.Fprintf(&b, "co-scan day %s: UMich %d hosts, Rapid7 %d hosts (deficit %.1f%%)\n",
		rep.Day.Format("2006-01-02"), rep.UMichHosts, rep.Rapid7Hosts, 100*rep.Rapid7Deficit())
	fmt.Fprintf(&b, "unique hosts: UMich-only %d, Rapid7-only %d\n", rep.UMichOnly, rep.Rapid7Only)
	fmt.Fprintf(&b, "%-6s %12s %12s %8s\n", "/8", "UMich-only", "Rapid7-only", "hosts")
	for _, row := range rep.PerSlash8 {
		if row.HostsInSlash8 < 20 {
			continue // keep the table readable
		}
		fmt.Fprintf(&b, "%3d.0.0.0/8 %9.3f %12.3f %8d\n", row.Slash8, row.UMichOnlyFrac, row.Rapid7OnlyFrac, row.HostsInSlash8)
	}
	return b.String()
}

func runS41(p *Pipeline) string {
	rep := p.Dataset.BlacklistAttribution()
	return fmt.Sprintf(
		"co-scan days: %d\nprefixes always missing from UMich: %d\nprefixes always missing from Rapid7: %d\nUMich-only hosts explained by Rapid7 blacklist: %.1f%%\nRapid7-only hosts explained by UMich blacklist: %.1f%%\n",
		rep.CoScanDays, rep.PrefixesMissingFromUMich, rep.PrefixesMissingFromRapid7,
		100*rep.ExplainedUMichOnly, 100*rep.ExplainedRapid7Only)
}

func runFig2(p *Pipeline) string {
	counts := p.Dataset.CertCounts()
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-15s %8s %8s %8s\n", "date", "operator", "valid", "invalid", "inv%")
	for _, c := range counts {
		fmt.Fprintf(&b, "%-12s %-15s %8d %8d %7.1f%%\n",
			c.Time.Format("2006-01-02"), c.Operator, c.Valid, c.Invalid, 100*c.InvalidFraction())
	}
	fmt.Fprintf(&b, "mean per-scan invalid fraction: %.1f%% (paper: 65.0%%)\n", 100*analysis.MeanInvalidFraction(counts))
	return b.String()
}

func runS42(p *Pipeline) string {
	vb := p.Dataset.Validation()
	var b strings.Builder
	fmt.Fprintf(&b, "unique observed certificates: %d\n", vb.Total)
	for _, st := range []truststore.Status{truststore.Valid, truststore.SelfSigned, truststore.UntrustedIssuer, truststore.BadSignature, truststore.BadVersion} {
		fmt.Fprintf(&b, "  %-18s %8d (%.2f%%)\n", st, vb.Counts[st], 100*float64(vb.Counts[st])/float64(vb.Total))
	}
	fmt.Fprintf(&b, "invalid overall: %.1f%% (paper: 87.9%%)\n", 100*vb.InvalidFraction)
	fmt.Fprintf(&b, "of invalid: self-signed %.1f%% (paper 88.0%%), untrusted %.1f%% (paper 11.99%%)\n",
		100*vb.SelfSignedOfInvalid, 100*vb.UntrustedOfInvalid)
	return b.String()
}

func runFig3(p *Pipeline) string {
	rep := p.Dataset.Longevity()
	var b strings.Builder
	fmt.Fprintf(&b, "valid:   median %.0f d, p90 %.0f d\n", rep.ValidPeriods.Median(), rep.ValidPeriods.Percentile(0.9))
	fmt.Fprintf(&b, "invalid: median %.0f d (%.1f y), p90 %.0f d (%.1f y), negative %.2f%% (paper 5.38%%)\n",
		rep.InvalidPeriods.Median(), rep.InvalidPeriods.Median()/365.25,
		rep.InvalidPeriods.Percentile(0.9), rep.InvalidPeriods.Percentile(0.9)/365.25,
		100*rep.NegativePeriodFrac)
	b.WriteString(curve("validity-days (invalid)", rep.InvalidPeriods, stats.LogSpace(0, 6, 13)))
	return b.String()
}

func runFig4(p *Pipeline) string {
	rep := p.Dataset.Longevity()
	var b strings.Builder
	fmt.Fprintf(&b, "valid lifetime:   median %.0f d (paper 274)\n", rep.ValidLifetimes.Median())
	fmt.Fprintf(&b, "invalid lifetime: median %.0f d (paper 1); single-scan %.1f%% (paper ~60%%)\n",
		rep.InvalidLifetimes.Median(), 100*rep.SingleScanInvalidFrac)
	b.WriteString(curve("lifetime-days (invalid)", rep.InvalidLifetimes, stats.LinSpace(0, 1000, 11)))
	b.WriteString(curve("lifetime-days (valid)", rep.ValidLifetimes, stats.LinSpace(0, 1000, 11)))
	return b.String()
}

func runFig5(p *Pipeline) string {
	rep := p.Dataset.Longevity()
	var b strings.Builder
	fmt.Fprintf(&b, "same-day %.1f%% (paper ~30%%), <4 days %.1f%% (paper ~70%%), >1000 days %.1f%% (paper ~20%%), negative %.1f%% (paper 2.9%%)\n",
		100*rep.SameDayFrac, 100*rep.NotBeforeGap.At(4), 100*rep.Beyond1000Frac, 100*rep.NegativeGapFrac)
	b.WriteString(curve("gap-days", rep.NotBeforeGap, stats.LogSpace(0, 5, 11)))
	return b.String()
}

func runFig6(p *Pipeline) string {
	rep := p.Dataset.KeySharing()
	var b strings.Builder
	fmt.Fprintf(&b, "invalid certs sharing a key: %.1f%% (paper 47%%); top key holds %.1f%% of invalid certs (paper 6.5%%)\n",
		100*rep.SharingInvalidFrac, 100*rep.TopKeyInvalidShare)
	fmt.Fprintf(&b, "distinct keys: %d invalid, %d valid\n", rep.InvalidKeys, rep.ValidKeys)
	b.WriteString("# share curve (x = fraction of keys, y = fraction of certs)\n")
	for i, pt := range rep.InvalidCurve {
		if i%10 == 0 {
			fmt.Fprintf(&b, "invalid\t%.3f\t%.3f\n", pt.X, pt.Y)
		}
	}
	for i, pt := range rep.ValidCurve {
		if i%10 == 0 {
			fmt.Fprintf(&b, "valid\t%.3f\t%.3f\n", pt.X, pt.Y)
		}
	}
	return b.String()
}

func runTable1(p *Pipeline) string {
	rep := p.Dataset.Issuers(5)
	var b strings.Builder
	b.WriteString("Top issuers of VALID certificates\n")
	for _, it := range rep.TopValid {
		fmt.Fprintf(&b, "  %-50s %8d\n", it.Label, it.Count)
	}
	b.WriteString("Top issuers of INVALID certificates\n")
	for _, it := range rep.TopInvalid {
		fmt.Fprintf(&b, "  %-50s %8d\n", it.Label, it.Count)
	}
	return b.String()
}

func runS53(p *Pipeline) string {
	rep := p.Dataset.Issuers(5)
	return fmt.Sprintf(
		"valid signing keys: %d; keys covering half of valid certs: %d (paper: 5 of 1,477)\ninvalid parent keys (AKI): %d; top-5 coverage %.1f%% (paper: 37%%)\n",
		rep.ValidParentKeys, rep.ValidKeysForHalf, rep.InvalidParentKeys, 100*rep.InvalidTop5KeyCoverage)
}

func runFig7(p *Pipeline) string {
	rep := p.Dataset.HostDiversity()
	return fmt.Sprintf(
		"avg IPs per cert p99: invalid %.1f (paper 2.0), valid %.1f (paper 11.3)\ninvalid on one IP: %.1f%%; invalid ever on >2 IPs: %.2f%% (paper 1.6%%)\nmost-replicated valid cert: %d IPs (paper: 3.6M)\n",
		rep.InvalidAvgIPs.Percentile(0.99), rep.ValidAvgIPs.Percentile(0.99),
		100*rep.SingleIPInvalidFrac, 100*rep.OverTwoIPsInvalidFrac, rep.MaxIPsForValidCert)
}

func runFig8(p *Pipeline) string {
	rep := p.Dataset.ASDiversity(5)
	return fmt.Sprintf(
		"top AS share: invalid %.1f%% (paper 18%%), valid %.1f%% (paper 10%%)\nASes for 70%% coverage: invalid %d, valid %d (paper: 165 vs 500; invalid must need fewer)\n",
		100*rep.TopASInvalidShare, 100*rep.TopASValidShare, rep.ASesFor70Invalid, rep.ASesFor70Valid)
}

func runTable2(p *Pipeline) string {
	rep := p.Dataset.ASDiversity(5)
	return fmt.Sprintf("%s(paper: invalid 94.1%% transit/access)\n", analysis.FormatASTypeTable(rep))
}

func runTable3(p *Pipeline) string {
	rep := p.Dataset.ASDiversity(5)
	var b strings.Builder
	b.WriteString("Top ASes hosting VALID certificates\n")
	for _, it := range rep.TopValidASes {
		fmt.Fprintf(&b, "  %-45s %8d\n", it.Label, it.Count)
	}
	b.WriteString("Top ASes hosting INVALID certificates\n")
	for _, it := range rep.TopInvalidASes {
		fmt.Fprintf(&b, "  %-45s %8d\n", it.Label, it.Count)
	}
	return b.String()
}

func runTable4(p *Pipeline) string {
	rows := p.Dataset.DeviceTypes(50)
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.2f%%  %s\n", 100*r.Fraction, r.Class)
	}
	return b.String()
}

func runTable5(p *Pipeline) string {
	statsRows := p.Linker.FeatureUniqueness()
	var b strings.Builder
	fmt.Fprintf(&b, "eligible invalid certs: %d of %d (%.1f%% excluded by the >2-IP rule; paper 1.6%%)\n",
		p.Linker.EligibleCount(), p.Linker.InvalidTotal(),
		100*float64(p.Linker.ExcludedShared())/float64(p.Linker.InvalidTotal()))
	fmt.Fprintf(&b, "%-14s %12s %10s\n", "feature", "non-unique", "present")
	for _, s := range statsRows {
		fmt.Fprintf(&b, "%-14s %11.1f%% %9.1f%%\n", s.Feature, 100*s.NonUniqueFrac, 100*s.PresentFrac)
	}
	return b.String()
}

func runFig9(p *Pipeline) string {
	// The canonical three-group scenario is exercised by unit tests
	// (TestFigure9OverlapRule); at corpus scale we report how many
	// public-key value-groups pass the overlap rule.
	return fmt.Sprintf("public-key value-groups passing the overlap rule: %d\n", publicKeyEval(p.LinkResult).NumGroups)
}

// publicKeyEval is the public key's Table 6 evaluation, which Link kept.
func publicKeyEval(res linking.Result) linking.FieldEval {
	for _, ev := range res.Evals {
		if ev.Feature == linking.FeaturePublicKey {
			return ev
		}
	}
	return linking.FieldEval{}
}

func runTable6(p *Pipeline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %8s %8s %8s\n", "feature", "linked", "uniquely", "IP", "/24", "AS")
	for _, ev := range p.LinkResult.Evals {
		fmt.Fprintf(&b, "%-14s %10d %10d %7.1f%% %7.1f%% %7.1f%%\n",
			ev.Feature, ev.TotalLinked, ev.UniquelyLinked,
			100*ev.IPConsistency, 100*ev.S24Consistency, 100*ev.ASConsistency)
	}
	return b.String()
}

func runFig10(p *Pipeline) string {
	res := p.LinkResult
	var b strings.Builder
	fmt.Fprintf(&b, "linked %d certs (%.1f%% of eligible; paper 39.4%%) into %d groups via %v\n",
		res.LinkedCerts, 100*res.LinkedFraction(), len(res.Groups), res.FieldOrder)
	fmt.Fprintf(&b, "rejected fields: %v\n", res.Rejected)
	all := linking.GroupSizeCDF(res.Groups, nil)
	if all.Len() > 0 {
		fmt.Fprintf(&b, "group sizes: median %.0f, p90 %.0f, max %.0f; groups >2 certs: %.1f%% (paper 62%% for PK)\n",
			all.Median(), all.Percentile(0.9), all.Max(), 100*(1-all.At(2)))
	}
	return b.String()
}

func runS644(p *Pipeline) string {
	lc := p.Linker.EvaluateLifetimeChange(p.LinkResult)
	return fmt.Sprintf(
		"single-scan fraction: %.1f%% -> %.1f%% (paper 61%% -> 50.7%%)\nmean lifetime: %.1f d -> %.1f d (paper 95.4 -> 132.3)\n",
		100*lc.SingleScanFracBefore, 100*lc.SingleScanFracAfter,
		lc.MeanLifetimeBefore, lc.MeanLifetimeAfter)
}

func runS72(p *Pipeline) string {
	rep := p.Tracker.Trackable(Year)
	return fmt.Sprintf("trackable >= 1y: %d without linking -> %d with linking (+%.1f%%; paper +17.2%%)\n",
		rep.Baseline, rep.WithLinking, 100*rep.Gain())
}

func runS73(p *Pipeline) string {
	rep := p.Tracker.Movement(Year, 10)
	var b strings.Builder
	fmt.Fprintf(&b, "tracked devices: %d; changing AS: %d (%.1f%%); transitions: %d; changed once: %.1f%% (paper 69.7%%)\n",
		rep.TrackedDevices, rep.DevicesChanging,
		100*float64(rep.DevicesChanging)/float64(max(rep.TrackedDevices, 1)),
		rep.TotalTransitions, 100*rep.ChangedOnceFrac)
	fmt.Fprintf(&b, "cross-country movers: %d\n", rep.CountryMoves)
	fmt.Fprintf(&b, "bulk transfers (>=%d devices): %d events, %d device-moves\n",
		rep.BulkThreshold, len(rep.BulkTransfers), rep.BulkDeviceMoves)
	for i, t := range rep.BulkTransfers {
		if i >= 5 {
			break
		}
		fmt.Fprintf(&b, "  AS%d -> AS%d: %d devices\n", t.FromASN, t.ToASN, t.Devices)
	}
	return b.String()
}

func runFig11(p *Pipeline) string {
	rep := p.Tracker.Reassignment(Year, 10)
	var b strings.Builder
	fmt.Fprintf(&b, "ASes with >=10 tracked devices: %d; >90%% static: %d (%.1f%%; paper 56.3%%); highly dynamic: %d (paper 15)\n",
		len(rep.PerAS), rep.MostlyStaticASes,
		100*float64(rep.MostlyStaticASes)/float64(max(len(rep.PerAS), 1)), rep.HighlyDynamicASes)
	b.WriteString(curve("static-fraction over ASes", rep.StaticFracCDF, stats.LinSpace(0, 1, 11)))
	return b.String()
}

func runTruth(p *Pipeline) string {
	rep := p.Linker.EvaluateTruth(p.LinkResult, p.Truth)
	return fmt.Sprintf(
		"group purity %.1f%% (%d/%d groups); cert precision %.1f%%; same-device pair recall %.1f%%\n",
		100*rep.GroupPurity(), rep.PureGroups, rep.GroupsEvaluated,
		100*rep.CertPrecision, 100*rep.PairRecall)
}

func runLint(p *Pipeline) string {
	var b strings.Builder
	var bySev [certlint.NumSeverities]int
	flagged := 0
	for _, cf := range p.LintResults {
		if len(cf.Findings) > 0 {
			flagged++
		}
		for _, f := range cf.Findings {
			bySev[f.Severity]++
		}
	}
	fmt.Fprintf(&b, "registry: %d linters; %d/%d certs flagged (INFO %d, WARN %d, ERROR %d, FATAL %d)\n\n",
		certlint.Default().Len(), flagged, len(p.LintResults),
		bySev[certlint.Info], bySev[certlint.Warn], bySev[certlint.Error], bySev[certlint.Fatal])

	rows := p.Dataset.LintSurvey(p.LintResults)
	b.WriteString(analysis.FormatLintSurvey(rows))
	return b.String()
}

func runLintCuts(p *Pipeline) string {
	rep := p.Dataset.LintCuts(p.LintResults, 5)
	return analysis.FormatLintCuts(rep)
}

func curve(name string, c *stats.CDF, xs []float64) string {
	if c.Len() == 0 {
		return ""
	}
	return stats.FormatSeries(name, c.Curve(xs))
}
