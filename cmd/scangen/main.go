// Command scangen generates a synthetic certificate-ecosystem corpus: it
// builds a device/website population, runs both scan campaigns over it, and
// writes the deduplicated corpus to disk for the analysis tools.
//
// Usage:
//
//	scangen -o corpus.spki [-format v3|v2] [-workers 0]
//	        [-devices 8600] [-sites 3700] [-seed 1] [-umich 30] [-rapid7 17]
//	        [-chunk 8192] [-mem-budget 268435456] [-spill-dir /tmp]
//	        [-metrics-out metrics.json]
//	scangen -upgrade old.spki -o corpus.v3 [-format v3]
//	        [-prefix2as corpus.prefix2as -asinfo corpus.asinfo]
//
// -metrics-out writes the generation run's metric registry (core.*,
// snapshot.* and parallel.*) as a versioned JSON document.
//
// The default output is the v2 sharded columnar snapshot (internal/snapshot);
// -format v3 appends the point-lookup index sections that cmd/certquery and
// internal/querystore serve from. Every streaming reader in this repo sniffs
// the format, so either loads everywhere, as do legacy v1 gzip+gob files.
//
// -chunk streams the whole build — population, scans, snapshot encode — in
// host chunks on bounded memory (core.StreamSnapshot): no resident world or
// corpus ever exists, state beyond -mem-budget spills to -spill-dir, and the
// output bytes are identical to the resident pipeline's at any chunk size.
//
// -upgrade skips generation: it loads an existing snapshot (any format,
// legacy v1 included) and rewrites it as -format. A loaded corpus carries no
// network view, so an upgraded v3 file gets an empty AS index unless
// -prefix2as (and optionally -asinfo) supply the RouteViews/CAIDA-style dumps
// a -dump-net run wrote — then the AS index is rebuilt from that routing
// table.
package main

import (
	"flag"
	"fmt"
	"os"

	"securepki/internal/core"
	"securepki/internal/obs"
	"securepki/internal/parallel"
	"securepki/internal/snapshot"
)

func main() {
	var (
		out        = flag.String("out", "corpus.spki", "output corpus file")
		format     = flag.String("format", "v2", "snapshot format: v3 (columnar + point-lookup indexes) or v2 (sharded columnar)")
		workers    = flag.Int("workers", 0, "encoder worker pool for -format v2/v3 (0 = GOMAXPROCS); bytes identical at any setting")
		upgrade    = flag.String("upgrade", "", "re-encode this existing snapshot (any format) as -format instead of generating")
		prefix2as  = flag.String("prefix2as", "", "with -upgrade -format v3: RouteViews-style prefix dump to rebuild the AS index from")
		asinfo     = flag.String("asinfo", "", "with -prefix2as: AS-info dump (asn|org|country|type lines)")
		dumpNet    = flag.Bool("dump-net", false, "also write <out>.prefix2as and <out>.asinfo (RouteViews/CAIDA-style datasets)")
		devices    = flag.Int("devices", 0, "number of end-user devices (0 = default)")
		sites      = flag.Int("sites", 0, "number of websites (0 = default)")
		seed       = flag.Uint64("seed", 0, "world seed (0 = default)")
		umich      = flag.Int("umich", 0, "UMich scan count (0 = default)")
		rapid7     = flag.Int("rapid7", 0, "Rapid7 scan count (0 = default)")
		small      = flag.Bool("small", false, "use the reduced sizing")
		chunkSize  = flag.Int("chunk", 0, "stream the build in chunks of this many hosts on bounded memory (0 = resident pipeline); bytes identical at any setting")
		memBudget  = flag.Int64("mem-budget", 0, "with -chunk: bound the chunk store's and encoder's memory in bytes; overflow spills to disk (0 = 256 MiB)")
		spillDir   = flag.String("spill-dir", "", "with -chunk: directory for spill files (\"\" = OS temp dir)")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics as a versioned JSON document")
		mutateFrac = flag.Float64("mutate-frac", 0, "apply frankencert-style mutations to this fraction of devices (0 = none, 1 = all); deterministic per device")
		mutateSeed = flag.Uint64("mutate-seed", 0, "mutation schedule seed (0 = derive from the world seed)")
	)
	flag.StringVar(out, "o", "corpus.spki", "shorthand for -out")
	flag.Parse()
	if *format != "v2" && *format != "v3" {
		fmt.Fprintf(os.Stderr, "scangen: unknown -format %q (want v2 or v3)\n", *format)
		os.Exit(2)
	}
	if *upgrade != "" {
		if err := upgradeSnapshot(*upgrade, *out, *format, *workers, *prefix2as, *asinfo, *metricsOut); err != nil {
			fatal(err)
		}
		return
	}

	cfg := core.DefaultConfig()
	if *small {
		cfg = core.SmallConfig()
	}
	if *devices > 0 {
		cfg.World.NumDevices = *devices
	}
	if *sites > 0 {
		cfg.World.NumSites = *sites
	}
	if *seed != 0 {
		cfg.World.Seed = *seed
	}
	if *umich > 0 {
		cfg.Scan.UMichScans = *umich
	}
	if *rapid7 > 0 {
		cfg.Scan.Rapid7Scans = *rapid7
	}
	if *mutateFrac < 0 || *mutateFrac > 1 {
		fmt.Fprintf(os.Stderr, "scangen: -mutate-frac %v outside [0, 1]\n", *mutateFrac)
		os.Exit(2)
	}
	cfg.World.MutateFrac = *mutateFrac
	cfg.World.MutateSeed = *mutateSeed

	reg := obs.NewRegistry()
	parallel.SetObserver(obs.NewParallelCollector(reg))
	defer parallel.SetObserver(nil)
	cfg.Obs = reg
	cfg.Workers = *workers

	if *chunkSize > 0 {
		if *dumpNet {
			fmt.Fprintln(os.Stderr, "scangen: -dump-net needs the resident pipeline; drop -chunk")
			os.Exit(2)
		}
		cfg.Stream = core.StreamConfig{ChunkSize: *chunkSize, MemBudget: *memBudget, SpillDir: *spillDir}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		stats, err := core.StreamSnapshot(cfg, *format == "v3", f, nil)
		if err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		info, err := os.Stat(*out)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "streamed %d hosts in %d chunks (%d spills, %d bytes spilled)\n",
			stats.Hosts, stats.Chunks, stats.Spills, stats.SpilledBytes)
		fmt.Fprintf(os.Stderr, "wrote %s (%s, %d bytes): %d certs, %d scans\n",
			*out, *format, info.Size(), stats.Certs, stats.Scans)
		if *metricsOut != "" {
			if err := obs.WriteMetricsFile(*metricsOut, reg); err != nil {
				fatal(err)
			}
		}
		return
	}

	p := &core.Pipeline{Config: cfg}
	if err := p.Generate(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "world: %d devices, %d sites, %d ASes, %d prefixes\n",
		len(p.World.Devices), len(p.World.Sites), len(p.World.Internet.ASes()), p.World.Internet.NumPrefixes())
	if err := p.Scan(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "scans: %d, unique certificates: %d\n", p.Corpus.NumScans(), p.Corpus.NumCerts())

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if *format == "v3" {
		err = snapshot.WriteV3(f, p.Corpus, snapshot.Options{
			Workers: *workers,
			Obs:     reg,
			ASOf:    snapshot.InternetASOf(p.World.Internet),
		})
	} else {
		err = snapshot.Write(f, p.Corpus, snapshot.Options{Workers: *workers, Obs: reg})
	}
	if err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%s, %d bytes)\n", *out, *format, info.Size())

	if *dumpNet {
		pf, err := os.Create(*out + ".prefix2as")
		if err != nil {
			fatal(err)
		}
		if err := p.World.Internet.WriteRouteViews(pf, cfg.World.Start); err != nil {
			fatal(err)
		}
		pf.Close()
		af, err := os.Create(*out + ".asinfo")
		if err != nil {
			fatal(err)
		}
		if err := p.World.Internet.WriteASInfo(af); err != nil {
			fatal(err)
		}
		af.Close()
		fmt.Fprintf(os.Stderr, "wrote %s.prefix2as and %s.asinfo\n", *out, *out)
	}
	if *metricsOut != "" {
		if err := obs.WriteMetricsFile(*metricsOut, reg); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scangen:", err)
	os.Exit(1)
}
