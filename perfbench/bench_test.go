package main

import (
	"encoding/base64"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"securepki/internal/x509lite"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", got)
	}
}

// TestOpenLoopChargesScheduledTime: one connection, a request due every
// millisecond, each answered in 10ms. Later requests wait behind earlier
// ones for the connection, and that wait is charged to them.
func TestOpenLoopChargesScheduledTime(t *testing.T) {
	const service = 10 * time.Millisecond
	s := openLoop(make([]query, 5), 1000, 1, func(query) (time.Time, bool) {
		time.Sleep(service)
		return time.Now(), true
	})
	// Request 4 is due at 4ms and cannot start before the four ahead of it
	// are done at 40ms: at least 50ms − 4ms after its due time.
	if got := s[4].lat; got < 46*time.Millisecond {
		t.Fatalf("last request latency %v: connection wait not charged from the scheduled send", got)
	}
	for i := 1; i < len(s); i++ {
		if s[i].lat < s[i-1].lat {
			t.Fatalf("latency fell from %v to %v while the queue only grew", s[i-1].lat, s[i].lat)
		}
	}
}

// TestClosedLoopTimesFromSend: each request is sent only once the previous
// answer is in, so its latency is its own service time, with no queue, and
// the time taken to check an answer after it was read is not charged.
func TestClosedLoopTimesFromSend(t *testing.T) {
	const service = 10 * time.Millisecond
	s := closedLoop(make([]query, 5), func(query) (time.Time, bool) {
		time.Sleep(service)
		done := time.Now()
		time.Sleep(service) // checking the answer
		return done, true
	})
	for i, x := range s {
		if x.lat < service || x.lat >= 2*service {
			t.Fatalf("request %d latency %v, want its own %v service time and no more", i, x.lat, service)
		}
	}
}

func testFixture() *fixture {
	fx := &fixture{CertsPerShard: 100}
	for i := 0; i < 1000; i++ {
		var fp, spki x509lite.Fingerprint
		fp[0], fp[1] = byte(i>>8), byte(i)
		spki[0], spki[1], spki[31] = byte(i>>8), byte(i), 1
		fx.Certs = append(fx.Certs, fp)
		fx.SPKIs = append(fx.SPKIs, spki)
		fx.Findings = append(fx.Findings, i%3)
	}
	for i := 0; i < 500; i++ {
		fx.IPs = append(fx.IPs, uint32(0x0a000000+7*i))
		fx.IPCert = append(fx.IPCert, 2*i)
	}
	fx.ASNs = []int{64500, 64501, 64502}
	fx.ASCert = []int{0, 10, 20}
	return fx
}

func TestKeyStreamIsPureFunctionOfSeed(t *testing.T) {
	fx := testFixture()
	a := newKeyStream(fx, 7).take(5000)
	if !reflect.DeepEqual(a, newKeyStream(fx, 7).take(5000)) {
		t.Fatal("same seed, different key streams")
	}
	if reflect.DeepEqual(a, newKeyStream(fx, 8).take(5000)) {
		t.Fatal("different seeds, same key stream")
	}
	present := map[string]bool{}
	for i := range fx.Certs {
		present[fx.Certs[i].String()] = true
		present[fx.SPKIs[i].String()] = true
	}
	var perRoute [numRoutes]int
	for _, q := range a {
		perRoute[q.route]++
		key := q.path[strings.LastIndexByte(q.path, '/')+1:]
		switch {
		case q.route == routeMiss && (q.want != 404 || present[key]):
			t.Fatalf("miss %s: want %d, key present %v", q.path, q.want, present[key])
		case (q.route == routeCert || q.route == routeSPKI || q.route == routeLint) && (q.want != 200 || !present[key] || key != q.key):
			t.Fatalf("hit %s: want %d, key present %v, key %q", q.path, q.want, present[key], q.key)
		case q.route != routeMiss && q.route != routeLint && !present[q.holds]:
			t.Fatalf("hit %s: the answer must hold %q, which the fixture lacks", q.path, q.holds)
		}
	}
	for r, n := range perRoute {
		if n == 0 {
			t.Errorf("route %d never drawn in 5000 queries", r)
		}
	}
}

func TestLadderStopsAtFirstMiss(t *testing.T) {
	var tried []float64
	best, failed := ladder([]float64{100, 200, 300, 400, 500}, func(rate float64) bool {
		tried = append(tried, rate)
		return rate != 300
	})
	if best != 200 || failed != 300 {
		t.Fatalf("best rung %v, failed rung %v; want 200 and 300", best, failed)
	}
	if !reflect.DeepEqual(tried, []float64{100, 200, 300}) {
		t.Fatalf("tried %v: the ladder must stop at the first rung that misses", tried)
	}
}

// TestRefineBisectsToCapacity: a server that keeps up to 237 requests per
// second is found within the last bisection step's width.
func TestRefineBisectsToCapacity(t *testing.T) {
	pass := func(rate float64) bool { return rate <= 237 }
	if got := refine(200, 300, 3, pass); got != 225 {
		t.Fatalf("refine(200, 300, 3) = %v, want 225", got)
	}
	if got := refine(500, 0, 3, pass); got != 500 {
		t.Fatalf("refine with no failing rung = %v, want the passing rate 500", got)
	}
}

// TestVerifyCatchesWrongAnswers: an answer that echoes the right key but
// carries the wrong certificate, SPKI, members or findings count fails.
func TestVerifyCatchesWrongAnswers(t *testing.T) {
	der := []byte("certificate bytes")
	fp := x509lite.FingerprintBytes(der).String()
	der64 := base64.StdEncoding.EncodeToString(der)
	wrong64 := base64.StdEncoding.EncodeToString([]byte("other bytes"))
	cert := query{route: routeCert, path: "/v1/cert/" + fp, want: 200, key: fp, holds: "5e"}
	lint := query{route: routeLint, path: "/v1/lint/" + fp, want: 200, key: fp, findings: 2}
	spki := query{route: routeSPKI, path: "/v1/spki/5e", want: 200, key: "5e", holds: fp}
	ip := query{route: routeIP, path: "/v1/ip/10.0.0.1", want: 200, key: "10.0.0.1", holds: fp}
	miss := query{route: routeMiss, path: "/v1/cert/cd", want: 404}
	for _, c := range []struct {
		q      query
		status int
		body   string
		want   bool
	}{
		{cert, 200, `{"fingerprint": "` + fp + `", "spki": "5e", "der_base64": "` + der64 + `"}`, true},
		{cert, 200, `{"fingerprint": "cd", "spki": "5e", "der_base64": "` + der64 + `"}`, false},
		{cert, 200, `{"fingerprint": "` + fp + `", "spki": "77", "der_base64": "` + der64 + `"}`, false},
		{cert, 200, `{"fingerprint": "` + fp + `", "spki": "5e", "der_base64": "` + wrong64 + `"}`, false},
		{cert, 200, `{"fingerprint": "` + fp + `", "spki": "5e", "der_base64": "!!"}`, false},
		{cert, 404, `{"error": "not found"}`, false},
		{cert, 200, `not json`, false},
		{lint, 200, `{"fingerprint": "` + fp + `", "count": 2, "findings": [{}, {}]}`, true},
		{lint, 200, `{"fingerprint": "` + fp + `", "count": 1, "findings": [{}]}`, false},
		{spki, 200, `{"key": "5e", "count": 2, "certs": ["aa", "` + fp + `"]}`, true},
		{spki, 200, `{"key": "5e", "count": 1, "certs": ["aa"]}`, false},
		{spki, 200, `{"key": "5e", "count": 3, "certs": ["aa", "` + fp + `"]}`, false},
		{ip, 200, `{"ip": "10.0.0.1", "count": 1, "sightings": [{"fingerprint": "` + fp + `"}]}`, true},
		{ip, 200, `{"ip": "10.0.0.1", "count": 1, "sightings": [{"fingerprint": "aa"}]}`, false},
		{miss, 404, `{"error": "not found"}`, true},
		{miss, 500, `{"error": "not found"}`, false},
		{miss, 404, `{"error": "boom"}`, false},
	} {
		if got := verify(c.q, c.status, []byte(c.body)); got != c.want {
			t.Errorf("verify(%s, %d, %s) = %v, want %v", c.q.path, c.status, c.body, got, c.want)
		}
	}
}
