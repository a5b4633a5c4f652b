// IP-reassignment inference (§7.4): use tracked devices as passive probes of
// each ISP's address-assignment policy, reproducing Figure 11 without any
// cooperation from the networks involved.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"securepki"
)

func main() {
	p, err := securepki.Run(securepki.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}

	rep := p.Tracker.Reassignment(securepki.Year, 8)
	fmt.Printf("ASes with enough tracked devices: %d\n", len(rep.PerAS))
	fmt.Printf("assign static addresses to >=90%% of devices: %d (paper: 56.3%% of ASes)\n",
		rep.MostlyStaticASes)
	fmt.Printf("renumber >=75%% of devices every scan: %d\n\n", rep.HighlyDynamicASes)

	// Figure 11 as a terminal CDF.
	fmt.Println("CDF over ASes of static-device fraction:")
	for _, x := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		y := rep.StaticFracCDF.At(x)
		bar := strings.Repeat("#", int(y*40))
		fmt.Printf("  static<=%.2f %5.1f%% %s\n", x, 100*y, bar)
	}

	// The extremes, named — the paper calls out Comcast (static) and
	// Deutsche Telekom (daily renumbering).
	sorted := append([]securepki.ASReassignment(nil), rep.PerAS...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StaticFrac > sorted[j].StaticFrac })
	fmt.Println("\nmost static:")
	for _, r := range sorted[:min(4, len(sorted))] {
		fmt.Printf("  AS%-6d %-28s %3d devices, %.0f%% static\n", r.ASN, r.Org, r.TrackedDevices, 100*r.StaticFrac)
	}
	fmt.Println("most dynamic:")
	for i := 0; i < min(4, len(sorted)); i++ {
		r := sorted[len(sorted)-1-i]
		fmt.Printf("  AS%-6d %-28s %3d devices, %.0f%% static, %.0f%% renumber per scan\n",
			r.ASN, r.Org, r.TrackedDevices, 100*r.StaticFrac, 100*r.PerScanChurnFrac)
	}
}
