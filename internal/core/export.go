package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"securepki/internal/linking"
	"securepki/internal/obs"
	"securepki/internal/stats"
)

// WritePlotData renders every figure's underlying series as whitespace-
// separated .dat files in dir (created if needed), plus a plots.gp gnuplot
// script that turns them into SVGs — `gnuplot plots.gp` regenerates the
// paper's figures from the synthetic corpus.
func WritePlotData(p *Pipeline, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: plot dir: %w", err)
	}
	// Each file is replaced whole or not at all, as every tool output is.
	write := func(name, contents string) error {
		return obs.WriteFileAtomic(filepath.Join(dir, name), func(w io.Writer) error {
			_, err := io.WriteString(w, contents)
			return err
		})
	}

	// fig1: per-/8 uniqueness on the first co-scan day.
	if days := p.Dataset.CoScanDays(); len(days) > 0 {
		rep := p.Dataset.ScanDiscrepancy(days[0])
		var b strings.Builder
		b.WriteString("# slash8 umich_only_frac rapid7_only_frac hosts\n")
		for _, row := range rep.PerSlash8 {
			fmt.Fprintf(&b, "%d %.4f %.4f %d\n", row.Slash8, row.UMichOnlyFrac, row.Rapid7OnlyFrac, row.HostsInSlash8)
		}
		if err := write("fig1.dat", b.String()); err != nil {
			return err
		}
	}

	// fig2: per-scan counts.
	{
		var b strings.Builder
		b.WriteString("# date operator valid invalid\n")
		for _, c := range p.Dataset.CertCounts() {
			fmt.Fprintf(&b, "%s %q %d %d\n", c.Time.Format("2006-01-02"), c.Operator.String(), c.Valid, c.Invalid)
		}
		if err := write("fig2.dat", b.String()); err != nil {
			return err
		}
	}

	lon := p.Dataset.Longevity()
	if err := write("fig3.dat", cdfPair("validity_days", lon.ValidPeriods, lon.InvalidPeriods, stats.LogSpace(0, 6, 61))); err != nil {
		return err
	}
	if err := write("fig4.dat", cdfPair("lifetime_days", lon.ValidLifetimes, lon.InvalidLifetimes, stats.LinSpace(0, 1100, 56))); err != nil {
		return err
	}
	if err := write("fig5.dat", cdfOne("gap_days", lon.NotBeforeGap, stats.LogSpace(0, 5, 51))); err != nil {
		return err
	}

	// fig6: key-share curves.
	{
		ks := p.Dataset.KeySharing()
		var b strings.Builder
		b.WriteString("# frac_keys frac_certs_valid frac_certs_invalid\n")
		n := len(ks.ValidCurve)
		if len(ks.InvalidCurve) < n {
			n = len(ks.InvalidCurve)
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%.4f %.4f %.4f\n", ks.InvalidCurve[i].X, ks.ValidCurve[i].Y, ks.InvalidCurve[i].Y)
		}
		if err := write("fig6.dat", b.String()); err != nil {
			return err
		}
	}

	hd := p.Dataset.HostDiversity()
	if err := write("fig7.dat", cdfPair("avg_ips", hd.ValidAvgIPs, hd.InvalidAvgIPs, stats.LogSpace(0, 2, 41))); err != nil {
		return err
	}
	ad := p.Dataset.ASDiversity(5)
	if err := write("fig8.dat", cdfPair("as_count", ad.ValidASCounts, ad.InvalidASCounts, stats.LogSpace(0, 2, 41))); err != nil {
		return err
	}

	// fig10: linked group sizes, overall and for the public-key field.
	{
		all := linking.GroupSizeCDF(p.LinkResult.Groups, nil)
		pk := linking.FeaturePublicKey
		pkCDF := linking.GroupSizeCDF(p.LinkResult.Groups, &pk)
		if err := write("fig10.dat", cdfPair("group_size", pkCDF, all, stats.LinSpace(2, 60, 59))); err != nil {
			return err
		}
	}

	// fig11: static-fraction CDF over ASes.
	{
		rep := p.Tracker.Reassignment(Year, 10)
		if err := write("fig11.dat", cdfOne("static_frac", rep.StaticFracCDF, stats.LinSpace(0, 1, 51))); err != nil {
			return err
		}
	}

	return write("plots.gp", gnuplotScript)
}

func cdfOne(label string, c *stats.CDF, xs []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s cdf\n", label)
	for _, pt := range c.Curve(xs) {
		fmt.Fprintf(&b, "%g %.5f\n", pt.X, pt.Y)
	}
	return b.String()
}

func cdfPair(label string, valid, invalid *stats.CDF, xs []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s cdf_valid cdf_invalid\n", label)
	for _, x := range xs {
		fmt.Fprintf(&b, "%g %.5f %.5f\n", x, valid.At(x), invalid.At(x))
	}
	return b.String()
}

const gnuplotScript = `# Regenerate the paper's figures from the synthetic corpus:
#   gnuplot plots.gp
set terminal svg size 640,400
set key bottom right
set grid

set output 'fig3.svg'
set title 'Figure 3: validity periods'
set logscale x
set xlabel 'Validity Period (days)'; set ylabel 'CDF'
plot 'fig3.dat' using 1:3 with lines title 'Invalid', '' using 1:2 with lines title 'Valid'

set output 'fig4.svg'
set title 'Figure 4: lifetimes'
unset logscale x
set xlabel 'Lifetime (days)'
plot 'fig4.dat' using 1:3 with lines title 'Invalid', '' using 1:2 with lines title 'Valid'

set output 'fig5.svg'
set title 'Figure 5: first advertised - NotBefore'
set logscale x
set xlabel 'Gap (days)'
plot 'fig5.dat' using 1:2 with lines title 'Ephemeral invalid'

set output 'fig6.svg'
set title 'Figure 6: key sharing'
unset logscale x
set xlabel 'Fraction of public keys'; set ylabel 'Fraction of certificates'
plot 'fig6.dat' using 1:3 with lines title 'Invalid', '' using 1:2 with lines title 'Valid', x with lines dashtype 2 title 'y=x'

set output 'fig7.svg'
set title 'Figure 7: IPs advertising each certificate'
set logscale x
set xlabel 'Avg. IPs per scan'; set ylabel 'CDF'
plot 'fig7.dat' using 1:3 with lines title 'Invalid', '' using 1:2 with lines title 'Valid'

set output 'fig8.svg'
set title 'Figure 8: ASes hosting each certificate'
set xlabel 'ASes'
plot 'fig8.dat' using 1:3 with lines title 'Invalid', '' using 1:2 with lines title 'Valid'

set output 'fig10.svg'
set title 'Figure 10: linked group sizes'
set xlabel 'Certificates per group'
plot 'fig10.dat' using 1:3 with lines title 'All fields', '' using 1:2 with lines title 'Public key'

set output 'fig11.svg'
set title 'Figure 11: static-assignment fraction over ASes'
unset logscale x
set xlabel 'Fraction of AS devices statically assigned'; set ylabel 'Cumulative fraction of ASes'
plot 'fig11.dat' using 1:2 with lines title 'ASes'
`
