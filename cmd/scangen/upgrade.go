package main

import (
	"fmt"
	"os"

	"securepki/internal/netsim"
	"securepki/internal/obs"
	"securepki/internal/parallel"
	"securepki/internal/snapshot"
)

// upgradeSnapshot re-encodes an existing snapshot file (any format — the
// reader sniffs) as the requested format. Round-tripping through the full
// decode means the output inherits every integrity check the streaming
// reader applies, and the rewrite is byte-deterministic at any worker count.
func upgradeSnapshot(in, out, format string, workers int, prefix2as, asinfo, metricsOut string) error {
	reg := obs.NewRegistry()
	parallel.SetObserver(obs.NewParallelCollector(reg))
	defer parallel.SetObserver(nil)

	f, err := os.Open(in)
	if err != nil {
		return err
	}
	c, err := snapshot.Read(f, snapshot.Options{Workers: workers, Obs: reg})
	f.Close()
	if err != nil {
		return fmt.Errorf("reading %s: %w", in, err)
	}
	fmt.Fprintf(os.Stderr, "read %s: %d certs, %d scans, %d observations\n",
		in, c.NumCerts(), c.NumScans(), c.NumObservations())

	opt := snapshot.Options{Workers: workers, Obs: reg}
	if prefix2as != "" {
		inet, err := readNetView(prefix2as, asinfo)
		if err != nil {
			return err
		}
		opt.ASOf = snapshot.InternetASOf(inet)
		fmt.Fprintf(os.Stderr, "network view: %d ASes, %d prefixes\n", len(inet.ASes()), inet.NumPrefixes())
	} else if format == "v3" {
		fmt.Fprintf(os.Stderr, "no -prefix2as: the v3 AS index will be empty\n")
	}

	g, err := os.Create(out)
	if err != nil {
		return err
	}
	if format == "v3" {
		err = snapshot.WriteV3(g, c, opt)
	} else {
		err = snapshot.Write(g, c, opt)
	}
	if err != nil {
		g.Close()
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	info, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%s, %d bytes)\n", out, format, info.Size())
	if metricsOut != "" {
		return obs.WriteMetricsFile(metricsOut, reg)
	}
	return nil
}

// readNetView rebuilds a routing table from the RouteViews/CAIDA-style dumps
// a `scangen -dump-net` run wrote alongside its corpus.
func readNetView(prefix2as, asinfo string) (*netsim.Internet, error) {
	pf, err := os.Open(prefix2as)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	if asinfo == "" {
		return netsim.ReadRouteViews(pf, nil)
	}
	af, err := os.Open(asinfo)
	if err != nil {
		return nil, err
	}
	defer af.Close()
	return netsim.ReadRouteViews(pf, af)
}
