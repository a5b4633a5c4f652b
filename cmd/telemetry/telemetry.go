// Package telemetry is the live-telemetry wiring that certscan, servesim and
// certquery share: the -debug-addr, -events-out and -sample-interval flags,
// the journal, sampler and ticker they configure, and the debug server. It
// is a library for those commands, not a command. It sits outside any
// internal/ path because repolint bans expvar, net/http/pprof and wall-clock
// reads there: only a binary that asked for -debug-addr may register the
// process-global debug handlers.
package telemetry

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"time"

	"securepki/internal/obs"
)

// Flags holds one command's telemetry flag values.
type Flags struct {
	debugAddr, eventsOut string
	sampleInterval       time.Duration
}

// RegisterFlags registers -debug-addr, -events-out and -sample-interval on
// fs. activity ends the -debug-addr help ("scanning", "serving"), events
// lists the journal's event types, and idle says what a zero
// -sample-interval means.
func RegisterFlags(fs *flag.FlagSet, activity, events, idle string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.debugAddr, "debug-addr", "",
		"serve telemetry (/metrics, /samples, /events, /statusz) plus expvar and pprof under /debug/ on this address while "+activity)
	fs.StringVar(&f.eventsOut, "events-out", "",
		"append structured journal events ("+events+") as JSON lines")
	fs.DurationVar(&f.sampleInterval, "sample-interval", 0,
		"sample the metric registry on this wall-clock interval for /samples and /statusz (0 = "+idle+")")
	return f
}

// Serving reports whether -debug-addr is set.
func (f *Flags) Serving() bool { return f.debugAddr != "" }

// Live is the live telemetry Start opened. Journal writes -events-out,
// or keeps only the tail /events serves when -debug-addr is set alone;
// Sampler exists when -debug-addr or -sample-interval is set. Either may be
// nil, and both are nil-safe.
type Live struct {
	Journal *obs.Journal
	Sampler *obs.Sampler

	stop, ticking chan struct{}
	events        *os.File
}

// Start opens what the flags ask for: the journal, the sampler and its
// wall-clock ticker, and the debug server, whose address it announces on
// stderr as "<cmd>: telemetry on http://<addr>/statusz". tracer may be nil;
// /statusz shows its span tail.
func (f *Flags) Start(cmd string, reg *obs.Registry, tracer *obs.Tracer) (*Live, error) {
	s := &Live{}
	if f.eventsOut != "" {
		ef, err := obs.WriteTraceFile(f.eventsOut) // same append-only JSONL semantics as traces
		if err != nil {
			return nil, err
		}
		s.events = ef
		s.Journal = obs.NewWallClockJournal(ef, 0)
	} else if f.debugAddr != "" {
		s.Journal = obs.NewWallClockJournal(nil, 0) // tail only, for /events
	}
	if f.debugAddr != "" || f.sampleInterval > 0 {
		s.Sampler = obs.NewWallClockSampler(reg, f.sampleInterval, 0)
	}
	if f.sampleInterval > 0 {
		s.stop, s.ticking = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(s.ticking)
			s.Sampler.RunTicker(s.stop)
		}()
	}
	if f.debugAddr != "" {
		bound, err := Serve(f.debugAddr, obs.Telemetry{
			Cmd: cmd, Reg: reg, Sampler: s.Sampler, Journal: s.Journal,
			Tracer: tracer, Start: time.Now(), Now: time.Now,
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: telemetry on http://%s/statusz\n", cmd, bound)
	}
	return s, nil
}

// Close stops the sampling ticker, waiting for it to exit, and closes the
// -events-out file. The journal wrote each line when it was emitted, so a
// caller that defers Close may drop its error.
func (s *Live) Close() error {
	if s.stop != nil {
		close(s.stop)
		<-s.ticking
	}
	if s.events == nil {
		return nil
	}
	return s.events.Close()
}

// Serve binds the debug endpoint: the telemetry surface (/metrics, /samples,
// /events, /statusz) on its own mux, with /debug/ delegated to
// http.DefaultServeMux where expvar (/debug/vars) and pprof (/debug/pprof/)
// register themselves at import time. The live registry is also published
// as the "obs" expvar. Returns the bound address so ":0" callers can
// discover the port.
func Serve(addr string, tel obs.Telemetry) (string, error) {
	publishObs(tel.Reg)
	mux := tel.Mux()
	mux.Handle("/debug/", http.DefaultServeMux)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			// The listener lives for the whole process; a serve error is
			// diagnostic only — the command's own work must not die for it.
			fmt.Fprintf(os.Stderr, "%s: debug server: %v\n", tel.Cmd, err)
		}
	}()
	return ln.Addr().String(), nil
}

// publishObs registers the registry snapshot as the "obs" expvar exactly
// once — expvar panics on duplicate names, and tests start several debug
// servers in one process. First registry wins; later calls are no-ops.
func publishObs(reg *obs.Registry) {
	if expvar.Get("obs") != nil {
		return
	}
	expvar.Publish("obs", expvar.Func(func() any { return reg.Snapshot() }))
}
