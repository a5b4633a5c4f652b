package main

import (
	"fmt"
	"io"
	"os"

	"securepki/internal/netsim"
	"securepki/internal/obs"
	"securepki/internal/parallel"
	"securepki/internal/snapshot"
)

// upgradeSnapshot rewrites an existing snapshot with its AS index rebuilt
// from a -dump-net routing table (prefix2as, plus asinfo when given), so a
// snapshot written without a network view (certscan's) gains one. Without
// prefix2as it fails before touching anything: a rewrite with no network
// view would only empty the AS index. Round-tripping through the full
// decode means the output inherits every integrity check the whole-corpus
// reader applies, and the rewrite is byte-deterministic at any worker
// count. The output is replaced only once fully written, so in == out is
// safe.
func upgradeSnapshot(in, out string, workers int, prefix2as, asinfo, metricsOut string) error {
	if prefix2as == "" {
		return fmt.Errorf("-upgrade needs -prefix2as: without a network view the rewrite would empty the AS index")
	}
	reg := obs.NewRegistry()
	parallel.SetObserver(obs.NewParallelCollector(reg))
	defer parallel.SetObserver(nil)

	f, err := os.Open(in)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	c, err := snapshot.Read(f, fi.Size(), snapshot.Options{Workers: workers, Obs: reg})
	f.Close()
	if err != nil {
		return fmt.Errorf("reading %s: %w", in, err)
	}
	fmt.Fprintf(os.Stderr, "read %s: %d certs, %d scans, %d observations\n",
		in, c.NumCerts(), c.NumScans(), c.NumObservations())

	inet, err := readNetView(prefix2as, asinfo)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "network view: %d ASes, %d prefixes\n", len(inet.ASes()), inet.NumPrefixes())
	opt := snapshot.Options{Workers: workers, Obs: reg, ASOf: snapshot.InternetASOf(inet)}
	if err := obs.WriteFileAtomic(out, func(w io.Writer) error { return snapshot.WriteV3(w, c, opt) }); err != nil {
		return err
	}
	info, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", out, info.Size())
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
