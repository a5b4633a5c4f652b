// Command scangen generates a synthetic certificate-ecosystem corpus: it
// builds a device/website population, runs both scan campaigns over it, and
// writes the deduplicated corpus to disk for the analysis tools.
//
// Usage:
//
//	scangen -o corpus.spki [-workers 0]
//	        [-devices 8600] [-sites 3700] [-seed 1] [-umich 30] [-rapid7 17]
//	        [-chunk 8192] [-mem-budget 268435456] [-spill-dir /tmp]
//	        [-metrics-out metrics.json]
//	scangen -upgrade in.spki -o out.spki -prefix2as corpus.prefix2as
//	        [-asinfo corpus.asinfo]
//
// -metrics-out writes the generation run's metric registry (core.*,
// snapshot.*, mem.* and parallel.*) as a versioned JSON document.
//
// The output is a snapshot (internal/snapshot): the sharded columnar corpus
// plus the point-lookup index sections that cmd/certquery and
// internal/querystore serve from, with the AS index built from the
// simulated routing table. analyze -corpus and certinfo -corpus load it
// too.
//
// The build streams — population, scans, snapshot encode — in host chunks
// on bounded memory (core.StreamSnapshot): no resident world or corpus ever
// exists, the chunk store and the snapshot encoder each hold at most
// -mem-budget of buffers and spill the rest to -spill-dir (the encoder's
// per-certificate table stays resident), and the output bytes are identical
// to the resident pipeline's at any -chunk size.
//
// Snapshots are written through a temp file in the output's directory and
// renamed into place, so a failed write leaves any previous file at -o
// untouched — even when -upgrade rewrites its own input.
//
// -upgrade skips generation: it loads an existing snapshot and rewrites it
// with the AS index rebuilt from -prefix2as (and optionally -asinfo), the
// RouteViews/CAIDA-style dumps a -dump-net run wrote. A snapshot written
// without a network view — certscan -o, whose AS section is empty — gains
// its AS index this way. -prefix2as is required: without it -upgrade exits
// non-zero and leaves the input as it was.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"securepki/internal/core"
	"securepki/internal/devicesim"
	"securepki/internal/obs"
	"securepki/internal/parallel"
)

func main() {
	var (
		out        = flag.String("out", "corpus.spki", "output corpus file")
		workers    = flag.Int("workers", 0, "worker pool size for every stage (0 = GOMAXPROCS); bytes identical at any setting")
		upgrade    = flag.String("upgrade", "", "rewrite this existing snapshot with the AS index rebuilt from -prefix2as instead of generating")
		prefix2as  = flag.String("prefix2as", "", "with -upgrade (required): RouteViews-style prefix dump to rebuild the AS index from")
		asinfo     = flag.String("asinfo", "", "with -prefix2as: AS-info dump (asn|org|country|type lines)")
		dumpNet    = flag.Bool("dump-net", false, "also write <out>.prefix2as and <out>.asinfo (RouteViews/CAIDA-style datasets)")
		devices    = flag.Int("devices", 0, "number of end-user devices (0 = default)")
		sites      = flag.Int("sites", 0, "number of websites (0 = default)")
		seed       = flag.Uint64("seed", 0, "world seed (0 = default)")
		umich      = flag.Int("umich", 0, "UMich scan count (0 = default)")
		rapid7     = flag.Int("rapid7", 0, "Rapid7 scan count (0 = default)")
		small      = flag.Bool("small", false, "use the reduced sizing")
		chunkSize  = flag.Int("chunk", 0, "stream the build in chunks of this many hosts (0 = 8192); bytes identical at any setting")
		memBudget  = flag.Int64("mem-budget", 0, "bound the chunk store's and the encoder's buffers to this many bytes each; overflow spills to disk (0 = 256 MiB)")
		spillDir   = flag.String("spill-dir", "", "directory for spill files (\"\" = OS temp dir)")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics as a versioned JSON document")
		mutateFrac = flag.Float64("mutate-frac", 0, "apply frankencert-style mutations to this fraction of devices (0 = none, 1 = all); deterministic per device")
		mutateSeed = flag.Uint64("mutate-seed", 0, "mutation schedule seed (0 = derive from the world seed)")
	)
	flag.StringVar(out, "o", "corpus.spki", "shorthand for -out")
	flag.Parse()
	if *upgrade != "" {
		if err := upgradeSnapshot(*upgrade, *out, *workers, *prefix2as, *asinfo, *metricsOut); err != nil {
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

	cfg.Stream = core.StreamConfig{ChunkSize: *chunkSize, MemBudget: *memBudget, SpillDir: *spillDir}
	var stats *core.StreamStats
	err := obs.WriteFileAtomic(*out, func(w io.Writer) error {
		var err error
		stats, err = core.StreamSnapshot(cfg, true, w, nil)
		return err
	})
	if err != nil {
		fatal(err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "streamed %d hosts in %d chunks (%d spills, %d bytes spilled)\n",
		stats.Hosts, stats.Chunks, stats.Spills, stats.SpilledBytes)
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes): %d certs, %d scans\n",
		*out, info.Size(), stats.Certs, stats.Scans)

	if *dumpNet {
		// The network view is the generator's base world, built before any
		// host is drawn.
		gen, err := devicesim.NewGenerator(cfg.World)
		if err != nil {
			fatal(err)
		}
		inet := gen.World().Internet
		err = obs.WriteFileAtomic(*out+".prefix2as", func(w io.Writer) error {
			return inet.WriteRouteViews(w, cfg.World.Start)
		})
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteFileAtomic(*out+".asinfo", inet.WriteASInfo); err != nil {
			fatal(err)
		}
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
