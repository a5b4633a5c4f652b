package main

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"securepki/internal/certlint"
	"securepki/internal/faultnet"
	"securepki/internal/netsim"
	"securepki/internal/obs"
	"securepki/internal/querystore"
	"securepki/internal/scanstore"
	"securepki/internal/snapshot"
	"securepki/internal/x509lite"
)

// TestMain lets the test binary stand in for the certquery command: with
// CERTQUERY_TEST_MAIN=1 in its environment it runs main on its own
// arguments, so a test can drive the real process — flags, stdout, signals
// — without a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("CERTQUERY_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testCorpus is the same deterministic builder the storage-layer tests use.
func testCorpus(tb testing.TB, nCerts, nScans, obsPerScan int) *scanstore.Corpus {
	tb.Helper()
	c := scanstore.NewCorpus()
	for i := 0; i < nCerts; i++ {
		seed := make([]byte, ed25519.SeedSize)
		binary.LittleEndian.PutUint64(seed, uint64(i)+1)
		priv := ed25519.NewKeyFromSeed(seed)
		der, err := x509lite.CreateCertificate(&x509lite.Template{
			Version:      3,
			SerialNumber: big.NewInt(int64(i) + 1),
			Subject:      x509lite.Name{CommonName: fmt.Sprintf("device-%d.local", i)},
			Issuer:       x509lite.Name{CommonName: fmt.Sprintf("device-%d.local", i)},
			NotBefore:    time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:     time.Date(2033, 3, 1, 0, 0, 0, 0, time.UTC),
		}, priv.Public().(ed25519.PublicKey), priv)
		if err != nil {
			tb.Fatal(err)
		}
		cert, err := x509lite.Parse(der)
		if err != nil {
			tb.Fatal(err)
		}
		c.Intern(cert)
	}
	base := time.Date(2013, 6, 1, 4, 30, 0, 0, time.UTC)
	for s := 0; s < nScans; s++ {
		obsList := make([]scanstore.Observation, obsPerScan)
		for j := range obsList {
			obsList[j] = scanstore.Observation{
				Cert: scanstore.CertID((s*131 + j*89) % nCerts),
				IP:   netsim.IP(0x0a000000 + uint32((j*99991+s*7)%(1<<16))),
			}
		}
		op := scanstore.UMich
		if s%3 == 1 {
			op = scanstore.Rapid7
		}
		if _, err := c.AddScan(op, base.AddDate(0, 0, s).Add(time.Duration(s)*time.Minute), obsList); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

func testASOf(ip netsim.IP, _ time.Time) (int, bool) {
	if uint32(ip)>>24 == 10 {
		return 64512 + int((uint32(ip)>>16)&0xff)%7, true
	}
	return 0, false
}

// lintCorpus runs the default registry over the corpus and persists the
// findings column next to the snapshot, mirroring analyze -lint-out.
func lintCorpus(tb testing.TB, c *scanstore.Corpus, path string) []certlint.CertFindings {
	tb.Helper()
	var certs []*x509lite.Certificate
	ctx := &certlint.Context{KeyCount: make(map[x509lite.Fingerprint]int)}
	for _, rec := range c.Certs() {
		certs = append(certs, rec.Cert)
		ctx.KeyCount[rec.Cert.PublicKeyFingerprint()]++
	}
	results := certlint.Default().RunCorpus(certs, ctx, certlint.Options{Workers: 2})
	if err := obs.WriteFileAtomic(path, func(w io.Writer) error { return snapshot.WriteLintColumn(w, results, certlint.Default().Infos()) }); err != nil {
		tb.Fatal(err)
	}
	return results
}

// startServer writes the corpus to a v3 file plus the lint sidecar column,
// opens a store, and serves the API on a loopback listener wrapped in the
// faultnet seam (zero policy = healthy network; the seam is the point where
// chaos tests would plug in). Returns the base URL and the live registry.
func startServer(tb testing.TB, c *scanstore.Corpus) (string, *obs.Registry) {
	tb.Helper()
	dir := tb.TempDir()
	path := filepath.Join(dir, "corpus.v3")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := snapshot.WriteV3(f, c, snapshot.Options{CertsPerShard: 32, ASOf: testASOf}); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	lintPath := filepath.Join(dir, "findings.lc")
	lintCorpus(tb, c, lintPath)
	lint, err := snapshot.ReadLintColumnFile(lintPath)
	if err != nil {
		tb.Fatal(err)
	}
	reg := obs.NewRegistry()
	st, err := querystore.Open(path, querystore.Options{Obs: reg})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	fln := faultnet.Wrap(ln, faultnet.Policy{}, 0)
	srv := &http.Server{Handler: newServer(st, lint, reg, time.Now).mux()}
	go srv.Serve(fln)
	tb.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String(), reg
}

func getJSON(tb testing.TB, url string, out any) int {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			tb.Fatalf("%s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestQueryAPI: all four endpoints plus healthz answer correctly over a real
// HTTP round trip.
func TestQueryAPI(t *testing.T) {
	c := testCorpus(t, 120, 4, 50)
	base, _ := startServer(t, c)

	var health healthJSON
	if code := getJSON(t, base+"/healthz", &health); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if health.Certs != c.NumCerts() || health.Scans != c.NumScans() {
		t.Fatalf("healthz counts: %+v", health)
	}

	rec := c.Cert(7)
	fp := rec.Cert.Fingerprint()
	var cert certJSON
	if code := getJSON(t, base+"/v1/cert/"+fp.String(), &cert); code != 200 {
		t.Fatalf("cert: %d", code)
	}
	if cert.Fingerprint != fp.String() || cert.SubjectCN != "device-7.local" || !cert.SelfSigned {
		t.Fatalf("cert body: %+v", cert)
	}

	var spki certSetJSON
	if code := getJSON(t, base+"/v1/spki/"+rec.Cert.PublicKeyFingerprint().String(), &spki); code != 200 {
		t.Fatalf("spki: %d", code)
	}
	if spki.Count == 0 || len(spki.Certs) != spki.Count {
		t.Fatalf("spki body: %+v", spki)
	}

	o := c.Scans()[0].Obs[0]
	ipStr := fmt.Sprintf("%d.%d.%d.%d", uint32(o.IP)>>24, uint32(o.IP)>>16&0xff, uint32(o.IP)>>8&0xff, uint32(o.IP)&0xff)
	var ipResp ipJSON
	if code := getJSON(t, base+"/v1/ip/"+ipStr, &ipResp); code != 200 {
		t.Fatalf("ip: %d", code)
	}
	if ipResp.Count == 0 || ipResp.Sightings[0].Operator == "" {
		t.Fatalf("ip body: %+v", ipResp)
	}

	var asResp certSetJSON
	if code := getJSON(t, base+"/v1/as/64512", &asResp); code != 200 {
		t.Fatalf("as: %d", code)
	}
	if asResp.Count == 0 {
		t.Fatalf("as body: %+v", asResp)
	}

	// The lint sidecar answers for the same fingerprint: the self-signed
	// 20-year test certs trip several linters.
	var lintResp lintJSON
	if code := getJSON(t, base+"/v1/lint/"+fp.String(), &lintResp); code != 200 {
		t.Fatalf("lint: %d", code)
	}
	if lintResp.Fingerprint != fp.String() || lintResp.Count == 0 || len(lintResp.Findings) != lintResp.Count {
		t.Fatalf("lint body: %+v", lintResp)
	}
	ids := map[string]findingJSON{}
	for _, f := range lintResp.Findings {
		ids[f.Lint] = f
	}
	want, ok := ids["self_signed"]
	if !ok {
		t.Fatalf("lint findings missing self_signed: %+v", lintResp)
	}
	if want.Severity != "INFO" || want.Version < 1 {
		t.Fatalf("self_signed finding: %+v", want)
	}
}

// TestLintEndpointMatchesRun: every fingerprint served by /v1/lint answers
// with exactly the findings the registry produced for it.
func TestLintEndpointMatchesRun(t *testing.T) {
	c := testCorpus(t, 40, 2, 10)
	base, _ := startServer(t, c)
	var certs []*x509lite.Certificate
	ctx := &certlint.Context{KeyCount: make(map[x509lite.Fingerprint]int)}
	for _, rec := range c.Certs() {
		certs = append(certs, rec.Cert)
		ctx.KeyCount[rec.Cert.PublicKeyFingerprint()]++
	}
	for _, cf := range certlint.Default().RunCorpus(certs, ctx, certlint.Options{}) {
		var resp lintJSON
		if code := getJSON(t, base+"/v1/lint/"+cf.Fingerprint.String(), &resp); code != 200 {
			t.Fatalf("lint %s: %d", cf.Fingerprint, code)
		}
		if len(resp.Findings) != len(cf.Findings) {
			t.Fatalf("lint %s: served %d findings, registry produced %d", cf.Fingerprint, len(resp.Findings), len(cf.Findings))
		}
		for i, f := range cf.Findings {
			got := resp.Findings[i]
			if got.Lint != f.LintID || got.Version != f.Version || got.Severity != f.Severity.String() || got.Detail != f.Detail {
				t.Fatalf("lint %s finding %d: %+v vs %+v", cf.Fingerprint, i, got, f)
			}
		}
	}
}

// TestLintColumnMustMatchSnapshot: certquery serves a lint column only
// beside its own snapshot. Serving snapshot A with column B — one written
// for a smaller corpus, or one holding a certificate A does not — it exits
// non-zero before binding, naming the count mismatch or the first entry
// that differs; A's own column serves.
func TestLintColumnMustMatchSnapshot(t *testing.T) {
	dir := t.TempDir()
	c := testCorpus(t, 40, 2, 10)
	corpus := filepath.Join(dir, "a.v3")
	if err := obs.WriteFileAtomic(corpus, func(w io.Writer) error {
		return snapshot.WriteV3(w, c, snapshot.Options{ASOf: testASOf})
	}); err != nil {
		t.Fatal(err)
	}
	own := filepath.Join(dir, "a.lc")
	results := lintCorpus(t, c, own)
	smaller := filepath.Join(dir, "smaller.lc")
	lintCorpus(t, testCorpus(t, 30, 2, 10), smaller)
	var stranger x509lite.Fingerprint
	for i := range stranger {
		stranger[i] = 0xff
	}
	top := 0 // A's last certificate in fingerprint order: the column's entry 39
	for i, cf := range results {
		if bytes.Compare(cf.Fingerprint[:], results[top].Fingerprint[:]) > 0 {
			top = i
		}
	}
	results[top].Fingerprint = stranger
	foreign := filepath.Join(dir, "foreign.lc")
	if err := obs.WriteFileAtomic(foreign, func(w io.Writer) error {
		return snapshot.WriteLintColumn(w, results, certlint.Default().Infos())
	}); err != nil {
		t.Fatal(err)
	}
	st, err := querystore.Open(corpus, querystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := st.FingerprintAt(39)
	st.Close()

	for _, tc := range []struct {
		column, want string
	}{
		{smaller, "lint column covers 30 certs, the snapshot holds 40"},
		{foreign, fmt.Sprintf("lint column entry 39 is %s, the snapshot's is %s", stranger, last)},
		{own, ""},
	} {
		cmd := exec.Command(os.Args[0], "-corpus", corpus, "-lint", tc.column, "-linger", "1ms")
		cmd.Env = append(os.Environ(), "CERTQUERY_TEST_MAIN=1", "GORACE="+os.Getenv("GORACE")+" atexit_sleep_ms=0")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if tc.want == "" {
			if err != nil || stdout.Len() == 0 {
				t.Errorf("%s: err %v, stdout %q, want it served\n%s", tc.column, err, stdout.Bytes(), stderr.Bytes())
			}
			continue
		}
		if err == nil || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: err %v, stderr:\n%s\nwant a refusal naming %q", tc.column, err, stderr.Bytes(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: bound %q before refusing", tc.column, stdout.Bytes())
		}
	}
}

// TestLintEndpointWithoutColumn: a server started without -lint answers 404
// on every lint key rather than crashing.
func TestLintEndpointWithoutColumn(t *testing.T) {
	c := testCorpus(t, 8, 1, 4)
	reg := obs.NewRegistry()
	srv := newServer(nil, nil, reg, time.Now)
	// Only the lint route is exercised; the nil store is never touched.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.mux()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	base := "http://" + ln.Addr().String()
	fp := c.Cert(0).Cert.Fingerprint()
	var e errorJSON
	if code := getJSON(t, base+"/v1/lint/"+fp.String(), &e); code != http.StatusNotFound {
		t.Fatalf("lint without column: %d, want 404", code)
	}
	if e.Error == "" {
		t.Fatal("lint without column: empty error body")
	}
}

// TestQueryMissesAre404 is the regression test for the absent-key status:
// a key not in the corpus is 404 with a JSON error body — never 500.
func TestQueryMissesAre404(t *testing.T) {
	c := testCorpus(t, 24, 2, 10)
	base, _ := startServer(t, c)
	misses := []string{
		"/v1/cert/" + "ff" + "00000000000000000000000000000000000000000000000000000000000000",
		"/v1/spki/" + "ff" + "00000000000000000000000000000000000000000000000000000000000000",
		"/v1/ip/192.0.2.1",
		"/v1/as/65999",
		"/v1/lint/" + "ff" + "00000000000000000000000000000000000000000000000000000000000000",
	}
	for _, path := range misses {
		var e errorJSON
		if code := getJSON(t, base+path, &e); code != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, code)
		} else if e.Error != "not found" {
			t.Fatalf("%s: body %+v", path, e)
		}
	}
	// Malformed keys are the client's fault: 400, not 404 or 500.
	for _, path := range []string{"/v1/cert/zz", "/v1/ip/not-an-ip", "/v1/as/-3", "/v1/as/x", "/v1/lint/zz"} {
		if code := getJSON(t, base+path, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, code)
		}
	}
}

// TestQueryLoad is the synthetic load generator: many workers fire mixed
// queries through the faultnet seam and every answer must be correct. The
// default is sized for CI; set CERTQUERY_LOAD_QUERIES=1000000 for the
// paper-scale million-query run (see EXPERIMENTS.md).
func TestQueryLoad(t *testing.T) {
	total := 20000
	if v := os.Getenv("CERTQUERY_LOAD_QUERIES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CERTQUERY_LOAD_QUERIES: %v", err)
		}
		total = n
	}
	c := testCorpus(t, 200, 4, 100)
	base, reg := startServer(t, c)

	fps := make([]string, c.NumCerts())
	for i := range fps {
		fps[i] = c.Cert(scanstore.CertID(i)).Cert.Fingerprint().String()
	}
	scan0 := c.Scans()[0]

	workers := 8
	perWorker := total / workers
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < perWorker; i++ {
				var url string
				wantCode := 200
				switch i % 4 {
				case 0:
					url = base + "/v1/cert/" + fps[(g*31+i)%len(fps)]
				case 1:
					o := scan0.Obs[(g*17+i)%len(scan0.Obs)]
					url = fmt.Sprintf("%s/v1/ip/%d.%d.%d.%d", base, uint32(o.IP)>>24, uint32(o.IP)>>16&0xff, uint32(o.IP)>>8&0xff, uint32(o.IP)&0xff)
				case 2:
					// The corpus IPs all fall in 10.0/16, so 64512 is the
					// one routed AS in the synthetic view.
					url = base + "/v1/as/64512"
				case 3:
					url = base + "/v1/cert/ff00000000000000000000000000000000000000000000000000000000000000"
					wantCode = 404
				}
				resp, err := client.Get(url)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v", g, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != wantCode {
					errs <- fmt.Errorf("worker %d: %s: status %d, want %d", g, url, resp.StatusCode, wantCode)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	done := perWorker * workers
	t.Logf("%d queries in %v (%.0f queries/sec)", done, elapsed, float64(done)/elapsed.Seconds())

	// The counting must add up: requests == 2xx + 4xx, no 5xx, and the
	// rendered metrics document validates.
	reqs := reg.Counter("query.http.requests").Value()
	if got := reg.Counter("query.http.status_2xx").Value() + reg.Counter("query.http.status_4xx").Value(); got != reqs || reqs < int64(done) {
		t.Fatalf("request accounting: reqs=%d 2xx+4xx=%d", reqs, got)
	}
	if v := reg.Counter("query.http.status_5xx").Value(); v != 0 {
		t.Fatalf("%d server errors under healthy load", v)
	}
	doc, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateMetrics(doc); err != nil {
		t.Fatalf("metrics document invalid: %v", err)
	}
}

// TestQuerySmoke is the end-to-end check `make query-smoke` runs: build a
// small v3 snapshot, serve it on a random port, prove all four lookup
// endpoints answer with correct bodies, and leave a schema-valid metrics
// artifact. With QUERY_SMOKE_OUT set, query_metrics.json is written there
// for CI to upload next to the other obs artifacts.
func TestQuerySmoke(t *testing.T) {
	outDir := os.Getenv("QUERY_SMOKE_OUT")
	if outDir == "" {
		outDir = t.TempDir()
	} else if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}

	c := testCorpus(t, 60, 3, 30)
	base, reg := startServer(t, c)

	var health healthJSON
	if code := getJSON(t, base+"/healthz", &health); code != 200 || health.Status != "ok" {
		t.Fatalf("healthz: code=%d body=%+v", code, health)
	}
	rec := c.Cert(3)
	var cert certJSON
	if code := getJSON(t, base+"/v1/cert/"+rec.Cert.Fingerprint().String(), &cert); code != 200 {
		t.Fatalf("cert endpoint: %d", code)
	}
	if cert.SubjectCN != "device-3.local" {
		t.Fatalf("cert body: %+v", cert)
	}
	var spki certSetJSON
	if code := getJSON(t, base+"/v1/spki/"+rec.Cert.PublicKeyFingerprint().String(), &spki); code != 200 || spki.Count == 0 {
		t.Fatalf("spki endpoint: code=%d body=%+v", code, spki)
	}
	o := c.Scans()[0].Obs[0]
	ipStr := fmt.Sprintf("%d.%d.%d.%d", uint32(o.IP)>>24, uint32(o.IP)>>16&0xff, uint32(o.IP)>>8&0xff, uint32(o.IP)&0xff)
	var ipResp ipJSON
	if code := getJSON(t, base+"/v1/ip/"+ipStr, &ipResp); code != 200 || ipResp.Count == 0 {
		t.Fatalf("ip endpoint: code=%d body=%+v", code, ipResp)
	}
	var asResp certSetJSON
	if code := getJSON(t, base+"/v1/as/64512", &asResp); code != 200 || asResp.Count == 0 {
		t.Fatalf("as endpoint: code=%d body=%+v", code, asResp)
	}
	if code := getJSON(t, base+"/v1/as/65999", nil); code != http.StatusNotFound {
		t.Fatalf("absent AS: code=%d, want 404", code)
	}
	var lintResp lintJSON
	if code := getJSON(t, base+"/v1/lint/"+rec.Cert.Fingerprint().String(), &lintResp); code != 200 || lintResp.Count == 0 {
		t.Fatalf("lint endpoint: code=%d body=%+v", code, lintResp)
	}

	metricsPath := filepath.Join(outDir, "query_metrics.json")
	if err := obs.WriteMetricsFile(metricsPath, reg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateMetrics(data); err != nil {
		t.Errorf("metrics artifact fails schema: %v\n%s", err, data)
	}
	// Every query layer must have reported in.
	for _, name := range []string{
		`"query.http.requests"`, `"query.http.latency_us"`,
		`"query.lookup.fingerprint"`, `"query.lookup.spki"`,
		`"query.lookup.ip"`, `"query.lookup.as"`, `"query.lookup.miss"`,
		`"query.store.certs"`,
	} {
		if !bytes.Contains(data, []byte(name)) {
			t.Errorf("metrics artifact is missing %s", name)
		}
	}
}

// BenchmarkQueryHTTP measures full-stack queries/sec through real sockets.
func BenchmarkQueryHTTP(b *testing.B) {
	c := testCorpus(b, 200, 2, 50)
	base, _ := startServer(b, c)
	fps := make([]string, c.NumCerts())
	for i := range fps {
		fps[i] = c.Cert(scanstore.CertID(i)).Cert.Fingerprint().String()
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		i := 0
		for pb.Next() {
			i++
			resp, err := client.Get(base + "/v1/cert/" + fps[i*13%len(fps)])
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "queries/sec")
	}
}
