package main

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// Routes of the query mix. Only routeCert reads certificate shards, through
// querystore's hot-shard cache; the others answer from the mmap'd index
// sections or the resident lint column.
const (
	routeCert = iota
	routeSPKI
	routeIP
	routeAS
	routeLint
	routeMiss // a well-formed key the corpus does not hold, on any of the five routes
	numRoutes
)

// The mix gives every route an equal share, as the repository's own
// million-query load run does (EXPERIMENTS.md, TestQueryLoad in
// cmd/certquery: certificate hits, IP hits, AS hits and certificate misses,
// a quarter each), widened to the two routes that run lacks, /v1/spki and
// /v1/lint, and with its misses spread over all five routes: a sixth each.
//
// shardSkew is an assumption: no trace of certquery traffic exists, and the
// load run cycles through the certificates uniformly. It is the Zipf
// exponent of certificate-shard popularity, shard r being the (r+1)-th most
// popular; against a cache smaller than the shard count it keeps a hot set
// that mostly hits and a tail that misses and inflates. The ranking is
// fixed, not drawn from the seed: which shard is hot changes how much a
// miss inflates (the last shard is short), and so would move every query
// metric between seeds.
const shardSkew = 1.0

type query struct {
	route int
	path  string
	want  int    // expected HTTP status
	key   string // the requested key, which the answer must echo
	// holds is what else the answer must carry: on /v1/cert the
	// certificate's SPKI; on /v1/spki, /v1/ip and /v1/as the fingerprint of
	// a certificate the fixture says the key leads to.
	holds    string
	findings int // /v1/lint: the certificate's number of lint findings
}

// keyStream draws queries from a fixture; the stream is a pure function of
// the fixture and the seed.
type keyStream struct {
	fx    *fixture
	rng   *stats.RNG
	zipf  *stats.Zipf // certificate-shard popularity
	certs map[x509lite.Fingerprint]bool
	spkis map[x509lite.Fingerprint]bool
}

func newKeyStream(fx *fixture, seed uint64) *keyStream {
	shards := (len(fx.Certs) + fx.CertsPerShard - 1) / fx.CertsPerShard
	ks := &keyStream{
		fx:    fx,
		rng:   stats.NewRNG(splitmix(seed ^ 0x6b657973)), // "keys"
		zipf:  stats.NewZipf(shards, shardSkew),
		certs: make(map[x509lite.Fingerprint]bool, len(fx.Certs)),
		spkis: make(map[x509lite.Fingerprint]bool, len(fx.SPKIs)),
	}
	for i := range fx.Certs {
		ks.certs[fx.Certs[i]] = true
		ks.spkis[fx.SPKIs[i]] = true
	}
	return ks
}

func (ks *keyStream) take(n int) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = ks.next()
	}
	return qs
}

func (ks *keyStream) next() query {
	fx := ks.fx
	switch ks.rng.Intn(numRoutes) {
	case routeCert:
		return ks.certQuery(ks.cert())
	case routeLint:
		i := ks.cert()
		fp := fx.Certs[i].String()
		return query{route: routeLint, path: "/v1/lint/" + fp, want: 200, key: fp, findings: fx.Findings[i]}
	case routeSPKI:
		i := ks.cert()
		spki := fx.SPKIs[i].String()
		return query{route: routeSPKI, path: "/v1/spki/" + spki, want: 200, key: spki, holds: fx.Certs[i].String()}
	case routeIP:
		j := ks.rng.Intn(len(fx.IPs))
		ip := netsim.IP(fx.IPs[j]).String()
		return query{route: routeIP, path: "/v1/ip/" + ip, want: 200, key: ip, holds: fx.Certs[fx.IPCert[j]].String()}
	case routeAS:
		j := ks.rng.Intn(len(fx.ASNs))
		asn := strconv.Itoa(fx.ASNs[j])
		return query{route: routeAS, path: "/v1/as/" + asn, want: 200, key: asn, holds: fx.Certs[fx.ASCert[j]].String()}
	}
	return ks.miss()
}

func (ks *keyStream) certQuery(i int) query {
	fp := ks.fx.Certs[i].String()
	return query{route: routeCert, path: "/v1/cert/" + fp, want: 200, key: fp, holds: ks.fx.SPKIs[i].String()}
}

// everyShard returns a /v1/cert query for the first certificate of each
// shard, so a warm-up that sends them leaves every shard a cache can hold
// cached. It draws nothing from the stream.
func (ks *keyStream) everyShard() []query {
	var qs []query
	for i := 0; i < len(ks.fx.Certs); i += ks.fx.CertsPerShard {
		qs = append(qs, ks.certQuery(i))
	}
	return qs
}

// cert draws a certificate index: a shard by its skewed popularity, then a
// certificate uniformly within the shard.
func (ks *keyStream) cert() int {
	lo := ks.zipf.Draw(ks.rng) * ks.fx.CertsPerShard
	hi := min(lo+ks.fx.CertsPerShard, len(ks.fx.Certs))
	return lo + ks.rng.Intn(hi-lo)
}

// miss draws a well-formed key the corpus does not hold; certquery must
// answer it 404 "not found".
func (ks *keyStream) miss() query {
	q := query{route: routeMiss, want: 404}
	switch ks.rng.Intn(5) {
	case 0:
		q.path = "/v1/cert/" + ks.absentFP(ks.certs)
	case 1:
		q.path = "/v1/lint/" + ks.absentFP(ks.certs)
	case 2:
		q.path = "/v1/spki/" + ks.absentFP(ks.spkis)
	case 3:
		ips := ks.fx.IPs
		for {
			ip := ks.rng.Uint32()
			if i := sort.Search(len(ips), func(i int) bool { return ips[i] >= ip }); i == len(ips) || ips[i] != ip {
				q.path = "/v1/ip/" + netsim.IP(ip).String()
				return q
			}
		}
	default:
		asns := ks.fx.ASNs
		for {
			asn := ks.rng.Intn(1 << 20)
			if i := sort.SearchInts(asns, asn); i == len(asns) || asns[i] != asn {
				q.path = "/v1/as/" + strconv.Itoa(asn)
				return q
			}
		}
	}
	return q
}

func (ks *keyStream) absentFP(present map[x509lite.Fingerprint]bool) string {
	for {
		var fp x509lite.Fingerprint
		for i := 0; i < len(fp); i += 8 {
			binary.LittleEndian.PutUint64(fp[i:], ks.rng.Uint64())
		}
		if !present[fp] {
			return fp.String()
		}
	}
}

// verify reports whether a response is the fixture's expected answer: the
// expected status, a body that echoes the requested key and carries what the
// fixture says it must, or the not-found error for an absent key. A
// certificate's DER must hash to the requested fingerprint.
func verify(q query, status int, body []byte) bool {
	if status != q.want {
		return false
	}
	var v struct {
		Fingerprint string   `json:"fingerprint"`
		SPKI        string   `json:"spki"`
		DER         string   `json:"der_base64"`
		Key         string   `json:"key"`
		IP          string   `json:"ip"`
		Count       int      `json:"count"`
		Certs       []string `json:"certs"`
		Sightings   []struct {
			Fingerprint string `json:"fingerprint"`
		} `json:"sightings"`
		Findings []json.RawMessage `json:"findings"`
		Error    string            `json:"error"`
	}
	if json.Unmarshal(body, &v) != nil {
		return false
	}
	switch q.route {
	case routeCert:
		der, err := base64.StdEncoding.DecodeString(v.DER)
		return err == nil && v.Fingerprint == q.key && v.SPKI == q.holds && x509lite.FingerprintBytes(der).String() == q.key
	case routeLint:
		return v.Fingerprint == q.key && v.Count == q.findings && len(v.Findings) == q.findings
	case routeSPKI, routeAS:
		return v.Key == q.key && v.Count == len(v.Certs) && slices.Contains(v.Certs, q.holds)
	case routeIP:
		if v.IP != q.key || v.Count != len(v.Sightings) {
			return false
		}
		for _, s := range v.Sightings {
			if s.Fingerprint == q.holds {
				return true
			}
		}
		return false
	}
	return v.Error == "not found"
}

// sample is one request's outcome. lat runs to the moment the answer was
// read in full: from the request's send in a closed loop, from its scheduled
// send in an open loop. late is how far behind schedule an open loop handed
// the request over.
type sample struct {
	route     int
	lat, late time.Duration
	ok        bool
}

// fetcher sends one query and returns when its answer was read in full, and
// whether the answer was right; checking it is not part of its latency.
type fetcher func(query) (done time.Time, ok bool)

// closedLoop sends qs one after another, each as soon as the previous answer
// is in, and times each from its own send. With nothing queued ahead of a
// request, its latency is the service time a lone caller sees.
func closedLoop(qs []query, fetch fetcher) []sample {
	out := make([]sample, len(qs))
	for i, q := range qs {
		start := time.Now()
		done, ok := fetch(q)
		out[i] = sample{route: q.route, lat: done.Sub(start), ok: ok}
	}
	return out
}

// openLoop offers qs at a fixed rate, whatever the answers' pace, through at
// most conns requests in flight. Each latency is charged from the scheduled
// send time, so time a request spends waiting for a free connection behind
// a slow answer counts against it.
func openLoop(qs []query, rate float64, conns int, fetch fetcher) []sample {
	type job struct {
		i    int
		due  time.Time
		late time.Duration
	}
	jobs := make(chan job, len(qs)) // one slot per request: the schedule never waits on the server
	out := make([]sample, len(qs))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				done, ok := fetch(qs[j.i])
				out[j.i] = sample{route: qs[j.i].route, lat: done.Sub(j.due), late: j.late, ok: ok}
			}
		}()
	}
	start := time.Now()
	for i := range qs {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{i: i, due: due, late: time.Since(due)}
	}
	close(jobs)
	wg.Wait()
	return out
}

// ladder runs one rung per rate, in order, and returns the highest rate
// whose rung passed and the rate of the first rung that failed (0 when every
// rung passed). It stops at the first rung that fails.
func ladder(rates []float64, pass func(rate float64) bool) (best, failed float64) {
	for _, r := range rates {
		if !pass(r) {
			return best, r
		}
		best = r
	}
	return best, 0
}

// refine halves the gap between a passing rate and a failing one steps
// times and returns the highest rate that passed, so the result is not
// confined to the ladder's rungs.
func refine(passed, failed float64, steps int, pass func(rate float64) bool) float64 {
	for i := 0; i < steps && failed > 0; i++ {
		mid := math.Round((passed + failed) / 2)
		if pass(mid) {
			passed = mid
		} else {
			failed = mid
		}
	}
	return passed
}

// rungPasses reports whether a rung met the limit: every answer correct and
// the p99 latency within limit. Latency runs from each scheduled send, so a
// backlog growing through the rung charges its wait to every later request
// and pushes the p99 over the limit.
func rungPasses(s []sample, limit time.Duration) bool {
	for _, x := range s {
		if !x.ok {
			return false
		}
	}
	return quantile(latenciesMS(s), 0.99) <= float64(limit)/1e6
}

// latenciesMS returns the ascending latencies, in ms, of the samples on the
// given routes, or on every route when none is given.
func latenciesMS(s []sample, routes ...int) []float64 {
	var out []float64
	for _, x := range s {
		if len(routes) == 0 || slices.Contains(routes, x.route) {
			out = append(out, float64(x.lat)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func lateMS(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.late) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile of ascending xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median returns the median of xs, in any order: the mean of the middle two
// for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOrders are the tail quantiles a report may name, each as 1/(1−q):
// p50, p90, p99, p99.9, p99.99.
var tailOrders = []int{2, 10, 100, 1000, 10000}

// tailQuantile returns the highest named quantile that leaves at least ten
// of n samples beyond it, or 0 when none does.
func tailQuantile(n int) float64 {
	q := 0.0
	for _, t := range tailOrders {
		if n >= 10*t {
			q = 1 - 1/float64(t)
		}
	}
	return q
}
