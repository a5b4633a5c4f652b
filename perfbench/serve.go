package main

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"securepki/internal/obs"
	"securepki/internal/querystore"
	"securepki/internal/x509lite"
)

// Query-phase settings. The measured window is a closed loop on one
// connection: windowPerSecond requests per second of --seconds, each sent
// when the previous answer is in. An open loop at a fixed rate was tried for
// the window and dropped: on a shared 2-CPU machine its latencies measured
// the generator's late wake-ups and queues behind 8 ms shard inflations, and
// the quartiles of its p50 and p99 over ten runs spread 0.4 to 3.8 times
// their medians. The open loop remains in the traced rate ladder: conns caps
// its requests in flight at the machine's CPU count, latencyLimit is the
// p99 a rung must meet, and a rung offers two seconds of requests, long
// enough that a rate 3% past capacity builds a backlog the limit catches.
const (
	windowPerSecond = 500
	warmRequests    = 1000 // sent before timing, to fill the shard cache
	conns           = 2
	latencyLimit    = 50 * time.Millisecond
	rungSeconds     = 2.0
	// rungAttempts lets a rung pass on a second try: a ≥50ms stall of the
	// shared machine fails any rung at these rates, while a rate past
	// capacity fails every try.
	rungAttempts = 2
	refineSteps  = 2
)

// ladderRates is the fixed ladder certquery.max_rps climbs: 10% steps from
// 1600 requests per second. refineSteps bisections between the last rung
// that passed and the first that failed then narrow the answer to 2.5%.
var ladderRates = func() []float64 {
	var rates []float64
	for r := 1600.0; r < 50000; r *= 1.1 {
		rates = append(rates, math.Round(r))
	}
	return rates
}()

type serveResult struct {
	shards      int      // certificate shards in the served snapshot; the window's certquery caches them all
	ladderCache int      // the ladder certquery's -cache, in shards
	window      []sample // the closed-loop window
	maxRPS      float64
	rungs       []rung   // every ladder rung tried, in order
	ladder      []sample // every ladder request, for the generator's lateness
	attempted   int
	failed      int
	// The two certquery processes' -metrics-out and the read path timed
	// in-process, all in traced runs only.
	server, ladderServer obs.Snapshot
	store                storeProbe
}

// rung is one try at one ladder rate.
type rung struct {
	rate, p99ms float64
	passed      bool
}

// serve runs the query phase against resident build 0's snapshot and lint
// column: a closed-loop window of n requests on one certquery process, then,
// traced, the rate ladder on a fresh one, so the first's metrics document
// covers its warm-up and the window alone.
//
// The window's certquery caches every certificate shard, and its warm-up
// reads each, so no request in the window inflates a shard. With the
// ladder's smaller cache, about 2% of the mix inflates one: certquery then
// allocates some 200 MB over a window, and its collector stretches the tail
// of every route, so the window's p99 measured garbage collection timing
// and moved by 0.18 of its median between seeds. The ladder's certquery
// keeps DefaultConfig's proportion, 25 cert shards against certquery's
// default 16 cached, so its working set exceeds the cache and the traced
// run measures the miss path under load.
func (d *runner) serve(fx *fixture, n int) (*serveResult, error) {
	stem := d.stem("resident", 0)
	corpus := stem + ".v3"
	shards := (len(fx.Certs) + fx.CertsPerShard - 1) / fx.CertsPerShard
	sv := &serveResult{shards: shards, ladderCache: int(math.Ceil(float64(shards) * 16 / 25))}
	args := func(cache int, metricsOut string) []string {
		a := []string{"-corpus", corpus, "-lint", stem + ".lc", "-cache", strconv.Itoa(cache)}
		if metricsOut != "" {
			a = append(a, "-metrics-out", metricsOut)
		}
		return a
	}
	ks := newKeyStream(fx, d.o.seed)
	count := func(s []sample) {
		for _, x := range s {
			sv.attempted++
			if !x.ok {
				sv.failed++
			}
		}
	}

	var windowOut, ladderOut string
	if d.o.trace {
		windowOut = filepath.Join(d.work, "certquery-window.json")
		ladderOut = filepath.Join(d.work, "certquery-ladder.json")
	}
	warm := append(ks.everyShard(), ks.take(warmRequests)...)
	qs := ks.take(n)
	if d.o.inject == "status" {
		qs[0].want = http.StatusTeapot
	}
	err := d.withServer(args(shards, windowOut), func(cl *client) error {
		count(closedLoop(warm, cl.fetch))
		sv.window = closedLoop(qs, cl.fetch)
		count(sv.window)
		return nil
	})
	if err != nil || !d.o.trace {
		return sv, err
	}
	if sv.server, err = readMetrics(windowOut); err != nil {
		return nil, err
	}
	if sv.store, err = probeStore(corpus, shards, qs); err != nil {
		return nil, err
	}

	warm = ks.take(warmRequests)
	err = d.withServer(args(sv.ladderCache, ladderOut), func(cl *client) error {
		count(closedLoop(warm, cl.fetch))
		pass := func(rate float64) bool {
			for try := 0; try < rungAttempts; try++ {
				s := openLoop(ks.take(int(rate*rungSeconds)), rate, conns, cl.fetch)
				count(s)
				sv.ladder = append(sv.ladder, s...)
				ok := rungPasses(s, latencyLimit)
				sv.rungs = append(sv.rungs, rung{rate, quantile(latenciesMS(s), 0.99), ok})
				if ok {
					return true
				}
			}
			return false
		}
		best, failed := ladder(ladderRates, pass)
		sv.maxRPS = refine(best, failed, refineSteps, pass)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sv.ladderServer, err = readMetrics(ladderOut)
	return sv, err
}

// withServer starts certquery with args, runs use against it and stops it.
func (d *runner) withServer(args []string, use func(*client) error) error {
	srv, err := d.startServer(args)
	if err != nil {
		return err
	}
	cl := newClient(srv.base)
	err = use(cl)
	cl.tr.CloseIdleConnections()
	if stopErr := srv.stop(); err == nil {
		err = stopErr
	}
	return err
}

type server struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	base   string
}

// startServer launches certquery on an ephemeral port and waits for its
// first 200 from /healthz.
func (d *runner) startServer(args []string) (*server, error) {
	srv := &server{cmd: exec.CommandContext(d.ctx, d.o.certquery, args...)}
	srv.cmd.Stderr = &srv.stderr
	stdout, err := srv.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := srv.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start certquery: %w", err)
	}
	// certquery prints its bound address once the store is open and the
	// lint column loaded.
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		stopErr := srv.stop()
		return nil, fmt.Errorf("certquery printed no address: %v (%v)", err, stopErr)
	}
	srv.base = "http://" + strings.TrimSpace(addr)
	hc := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		if resp, err := hc.Get(srv.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			stopErr := srv.stop()
			return nil, fmt.Errorf("certquery at %s never answered /healthz (%v)", srv.base, stopErr)
		}
		time.Sleep(time.Millisecond)
	}
	return srv, nil
}

// stop asks certquery to shut down, which writes its -metrics-out, and
// waits for it to exit.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM) // an already exited process is reported by Wait
	err := s.cmd.Wait()
	// certquery installs its SIGTERM handler just after it starts serving,
	// so a stop right after its first answer can end it by the signal's
	// default action: still the stop asked for.
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	if err != nil {
		return fmt.Errorf("certquery: %w: %s", err, s.stderr.String())
	}
	return nil
}

type client struct {
	base string
	tr   *http.Transport
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{Proxy: nil, MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, tr: tr, http: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

// fetch is the client's fetcher: it stops the clock once the body is read,
// then checks the answer against the fixture.
func (c *client) fetch(q query) (time.Time, bool) {
	resp, err := c.http.Get(c.base + q.path)
	if err != nil {
		return time.Now(), false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	return done, err == nil && verify(q, resp.StatusCode, body)
}

func readMetrics(path string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		return snap, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

func findMetric(snap obs.Snapshot, name string) obs.Metric {
	for _, m := range snap.Metrics {
		if m.Name == name {
			return m
		}
	}
	return obs.Metric{Name: name}
}

func counterValue(snap obs.Snapshot, name string) float64 {
	if v := findMetric(snap, name).Value; v != nil {
		return float64(*v)
	}
	return 0
}

// storeProbe is the read path timed in-process on the window's cert keys:
// opening the store, the lookups handleCert makes, and the Ed25519
// self-signature check it pays per answer.
type storeProbe struct {
	openMS, byFPus, selfSignedUS float64
}

func probeStore(corpus string, cache int, qs []query) (storeProbe, error) {
	var p storeProbe
	var opens []float64
	opt := querystore.Options{CacheShards: cache}
	for i := 0; i < 5; i++ {
		start := time.Now()
		st, err := querystore.Open(corpus, opt)
		if err != nil {
			return p, err
		}
		opens = append(opens, float64(time.Since(start))/1e6)
		st.Close()
	}
	p.openMS = median(opens)

	var fps []x509lite.Fingerprint
	for _, q := range qs {
		if q.route != routeCert {
			continue
		}
		var fp x509lite.Fingerprint
		if _, err := hex.Decode(fp[:], []byte(q.key)); err != nil {
			return p, err
		}
		fps = append(fps, fp)
	}
	if len(fps) == 0 {
		return p, fmt.Errorf("no certificate keys to probe")
	}
	st, err := querystore.Open(corpus, opt)
	if err != nil {
		return p, err
	}
	defer st.Close()
	certs := make([]*x509lite.Certificate, 0, len(fps))
	start := time.Now()
	for _, fp := range fps {
		c, ok, err := st.ByFingerprint(fp)
		if err != nil || !ok {
			return p, fmt.Errorf("querystore lookup of %s: found %v, %v", fp, ok, err)
		}
		certs = append(certs, c)
	}
	p.byFPus = float64(time.Since(start)) / 1e3 / float64(len(fps))
	selfSigned := 0
	start = time.Now()
	for _, c := range certs {
		if c.SelfSigned() {
			selfSigned++
		}
	}
	p.selfSignedUS = float64(time.Since(start)) / 1e3 / float64(len(certs))
	if selfSigned == 0 {
		return p, fmt.Errorf("none of %d probed certificates is self-signed", len(certs))
	}
	return p, nil
}
