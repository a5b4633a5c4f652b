// Command servesim exposes a slice of the simulated device population on
// real TCP sockets using the wire protocol, so cmd/certscan (or any client)
// can harvest certificates over an actual network path.
//
// Each device gets one loopback listener; devices keep reissuing on their
// simulated schedule, so repeated scans observe rotating certificates.
//
// Usage:
//
//	servesim [-n 25] [-seed 1] [-addr 127.0.0.1:0] [-targets targets.txt]
//	         [-chaos 0.3 -chaos-seed 99 -chaos-burst 2]
//	         [-mutate-frac 0.3 -mutate-seed 7]
//	         [-metrics-out metrics.json] [-events-out events.jsonl]
//	         [-debug-addr :6060] [-sample-interval 1s]
//
// With -mutate-frac > 0 that fraction of devices serves frankencert-style
// mutants (internal/certmutate): live rotation still applies, and which
// devices mutate is a pure function of (-mutate-seed, device index).
//
// -metrics-out writes the run's metric registry on exit; -events-out appends
// the structured event journal (serve.start/serve.stop). -debug-addr serves
// the live telemetry surface — /metrics (Prometheus exposition), /samples,
// /events, /statusz — plus expvar (/debug/vars, live registry as the "obs"
// var) and pprof (/debug/pprof/) while devices are being served;
// -sample-interval runs the wall-clock sampling ticker.
//
// The listener addresses are written to -targets (default stdout), one per
// line — feed that file to certscan. The file is written atomically once
// every listener is up, so a scanner reads either no list or the whole one.
//
// With -chaos > 0 every listener is wrapped in the internal/faultnet layer:
// the given fraction of connections is refused, stalled, reset, truncated,
// slow-paced or corrupted, on a schedule that is a pure function of
// (-chaos-seed, device index, connection ordinal). -chaos-burst caps how many
// consecutive connections a device may fault, so a certscan client with at
// least that many retries always converges (see the chaos matrix test in
// cmd/certscan).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"securepki/cmd/telemetry"
	"securepki/internal/devicesim"
	"securepki/internal/faultnet"
	"securepki/internal/obs"
	"securepki/internal/wire"
)

func main() {
	var (
		n          = flag.Int("n", 25, "number of devices to expose")
		seed       = flag.Uint64("seed", 1, "world seed")
		addr       = flag.String("addr", "127.0.0.1:0", "listen address pattern (port 0 = ephemeral)")
		targets    = flag.String("targets", "", "file to write listener addresses to (default stdout)")
		linger     = flag.Duration("linger", 0, "serve for this long then exit (0 = until interrupted)")
		chaos      = flag.Float64("chaos", 0, "fault-inject this fraction of connections (0 = healthy)")
		chaosSeed  = flag.Uint64("chaos-seed", 99, "seed for the fault schedule")
		chaosBurst = flag.Int("chaos-burst", 2, "max consecutive faulted connections per device (-1 = uncapped)")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics as a versioned JSON document on exit")
		mutateFrac = flag.Float64("mutate-frac", 0, "serve frankencert-style mutants from this fraction of devices (0 = none, 1 = all)")
		mutateSeed = flag.Uint64("mutate-seed", 0, "mutation schedule seed (0 = derive from -seed)")
	)
	tel := telemetry.RegisterFlags(flag.CommandLine, "serving", "serve.start/serve.stop", "off")
	flag.Parse()

	reg := obs.NewRegistry()
	live, err := tel.Start("servesim", reg, nil)
	if err != nil {
		fatal(err)
	}
	defer live.Close()

	cfg := devicesim.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumDevices = *n * 4 // draw extra so profile variety survives the cut
	cfg.NumSites = 8
	cfg.MutateFrac = *mutateFrac
	cfg.MutateSeed = *mutateSeed
	world, err := devicesim.BuildWorld(cfg)
	if err != nil {
		fatal(err)
	}

	// The -targets file is written once, whole, when every listener is up.
	var out io.Writer = os.Stdout
	var list strings.Builder
	if *targets != "" {
		out = &list
	}

	// The serve span's Timer is the wall clock every provider closure reads:
	// 1 real second = 1 simulated day. Folding the old stats.Timer into the
	// span keeps a single clock seam for both tracing and simulation.
	span := obs.NewWallClockTracer(io.Discard).Start("servesim.serve")
	timer := span.Timer
	var servers []*wire.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for i := 0; i < *n && i < len(world.Devices); i++ {
		dev := world.Devices[i]
		// The provider advances the simulated clock with real time, so the
		// device reissues live: 1 real second = 1 simulated day.
		provider := func() [][]byte {
			days := int(timer.Seconds())
			dev.AdvanceTo(dev.Birth.AddDate(0, 0, days))
			return [][]byte{dev.CurrentCert().Raw}
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fatal(err)
		}
		var listener net.Listener = ln
		if *chaos > 0 {
			listener = faultnet.Wrap(ln, faultnet.Policy{
				Seed:           *chaosSeed,
				Rate:           *chaos,
				MaxConsecutive: *chaosBurst,
			}, uint64(i))
		}
		srv, err := wire.Serve(listener, provider)
		if err != nil {
			fatal(err)
		}
		servers = append(servers, srv)
		fmt.Fprintf(out, "%s\n", srv.Addr())
		fmt.Fprintf(os.Stderr, "serving %-18s profile=%s CN=%q\n",
			srv.Addr(), dev.Profile.Name, dev.CurrentCert().Subject.CommonName)
	}
	if *targets != "" {
		if err := obs.WriteFileAtomic(*targets, func(w io.Writer) error {
			_, err := io.WriteString(w, list.String())
			return err
		}); err != nil {
			fatal(err)
		}
	}
	if *chaos > 0 {
		fmt.Fprintf(os.Stderr, "servesim: chaos rate %.2f seed %d burst %d on %d listeners\n",
			*chaos, *chaosSeed, *chaosBurst, len(servers))
	}

	reg.Gauge("servesim.devices").Set(int64(len(servers)))
	if *chaos > 0 {
		reg.Gauge("servesim.chaos.rate_pct").Set(int64(*chaos * 100))
	}
	live.Journal.Emit("serve.start",
		"devices", fmt.Sprint(len(servers)),
		"chaos", fmt.Sprintf("%.2f", *chaos))
	live.Sampler.Tick() // the steady-state sample even without a ticker

	if *linger > 0 {
		time.Sleep(*linger)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
	span.SetAttrInt("devices", int64(len(servers)))
	span.End()
	live.Journal.Emit("serve.stop", "devices", fmt.Sprint(len(servers)))
	if *metricsOut != "" {
		if err := obs.WriteMetricsFile(*metricsOut, reg); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servesim:", err)
	os.Exit(1)
}
