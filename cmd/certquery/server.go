package main

import (
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/obs"
	"securepki/internal/querystore"
	"securepki/internal/snapshot"
	"securepki/internal/x509lite"
)

// latencyBoundsUS buckets request latency in microseconds: sub-100µs is the
// hot-cache index path, the 1–10ms decades are shard inflations, anything
// above is the disk or a stall.
var latencyBoundsUS = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000, 250000}

// server wires the querystore into HTTP handlers with query.http.* metrics.
// lint is the optional findings sidecar column (-lint); nil means the
// endpoint answers 404 for every key.
type server struct {
	st      *querystore.Store
	lint    *snapshot.LintColumn
	now     func() time.Time
	journal *obs.Journal  // query.5xx events; nil disables
	access  *accessLogger // per-request JSONL (-access-log); nil disables

	reqs, c2xx, c4xx, c5xx *obs.Counter
	lat                    *obs.Histogram
}

func newServer(st *querystore.Store, lint *snapshot.LintColumn, reg *obs.Registry, now func() time.Time) *server {
	return &server{
		st:   st,
		lint: lint,
		now:  now,
		reqs: reg.Counter("query.http.requests"),
		c2xx: reg.Counter("query.http.status_2xx"),
		c4xx: reg.Counter("query.http.status_4xx"),
		c5xx: reg.Counter("query.http.status_5xx"),
		lat:  reg.Histogram("query.http.latency_us", latencyBoundsUS, obs.Volatile),
	}
}

// mux routes the API. Go 1.22 patterns give method + path-value matching;
// the route string is passed alongside its handler because the access log
// and 5xx journal events key on the pattern, not the concrete path, and
// http.Request.Pattern only exists from Go 1.23.
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	routes := []struct {
		pattern string
		h       func(http.ResponseWriter, *http.Request) int
	}{
		{"GET /healthz", s.handleHealth},
		{"GET /v1/cert/{fp}", s.handleCert},
		{"GET /v1/spki/{spki}", s.handleSPKI},
		{"GET /v1/ip/{ip}", s.handleIP},
		{"GET /v1/as/{asn}", s.handleAS},
		{"GET /v1/lint/{fp}", s.handleLint},
	}
	for _, rt := range routes {
		m.HandleFunc(rt.pattern, s.wrap(rt.pattern, rt.h))
	}
	return m
}

// wrap layers counting, latency observation, the access log, and 5xx journal
// events over a handler that returns the status code it wrote. An incoming
// X-Request-Id is honored; otherwise the access logger mints one. Either way
// the ID is echoed back as the X-Request-Id response header so a client can
// correlate its request with the server's log line.
func (s *server) wrap(route string, h func(w http.ResponseWriter, r *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		s.reqs.Inc()
		var reqID string
		if s.access != nil {
			reqID = r.Header.Get("X-Request-Id")
			if reqID == "" {
				reqID = s.access.nextID()
			}
			w.Header().Set("X-Request-Id", reqID)
		}
		code := h(w, r)
		lat := s.now().Sub(start)
		s.lat.Observe(lat.Microseconds())
		switch {
		case code >= 500:
			s.c5xx.Inc()
			s.journal.Emit("query.5xx",
				"route", route,
				"status", strconv.Itoa(code),
				"request_id", reqID)
		case code >= 400:
			s.c4xx.Inc()
		default:
			s.c2xx.Inc()
		}
		s.access.log(accessEntry{
			Time:      stamp(start),
			Method:    r.Method,
			Route:     route,
			Path:      r.URL.Path,
			Status:    code,
			LatencyUS: lat.Microseconds(),
			RequestID: reqID,
		})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // a mid-body write error leaves nothing to salvage
	return code
}

type errorJSON struct {
	Error string `json:"error"`
}

// writeErr emits the JSON error body. Absent keys are 404 — a miss is a
// well-formed answer about the corpus, not a server failure.
func writeErr(w http.ResponseWriter, code int, msg string) int {
	return writeJSON(w, code, errorJSON{Error: msg})
}

func parseFingerprint(s string) (x509lite.Fingerprint, error) {
	var fp x509lite.Fingerprint
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(fp) {
		return fp, fmt.Errorf("want %d hex chars", 2*len(fp))
	}
	copy(fp[:], raw)
	return fp, nil
}

type healthJSON struct {
	Status       string `json:"status"`
	Certs        int    `json:"certs"`
	Scans        int    `json:"scans"`
	Observations uint64 `json:"observations"`
	IPKeys       int    `json:"ip_keys"`
	ASKeys       int    `json:"as_keys"`
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) int {
	st := s.st.Stats()
	return writeJSON(w, http.StatusOK, healthJSON{
		Status: "ok", Certs: st.Certs, Scans: st.Scans,
		Observations: st.Observations, IPKeys: st.IPKeys, ASKeys: st.ASKeys,
	})
}

type certJSON struct {
	Fingerprint string    `json:"fingerprint"`
	SPKI        string    `json:"spki"`
	SubjectCN   string    `json:"subject_cn"`
	IssuerCN    string    `json:"issuer_cn"`
	NotBefore   time.Time `json:"not_before"`
	NotAfter    time.Time `json:"not_after"`
	DNSNames    []string  `json:"dns_names,omitempty"`
	SelfSigned  bool      `json:"self_signed"`
	IsCA        bool      `json:"is_ca"`
	DER         string    `json:"der_base64"`
}

func (s *server) handleCert(w http.ResponseWriter, r *http.Request) int {
	fp, err := parseFingerprint(r.PathValue("fp"))
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad fingerprint: %v", err))
	}
	cert, ok, err := s.st.ByFingerprint(fp)
	if err != nil {
		return writeErr(w, http.StatusInternalServerError, err.Error())
	}
	if !ok {
		return writeErr(w, http.StatusNotFound, "not found")
	}
	return writeJSON(w, http.StatusOK, certJSON{
		Fingerprint: fp.String(),
		SPKI:        cert.PublicKeyFingerprint().String(),
		SubjectCN:   cert.Subject.CommonName,
		IssuerCN:    cert.Issuer.CommonName,
		NotBefore:   cert.NotBefore,
		NotAfter:    cert.NotAfter,
		DNSNames:    cert.DNSNames,
		SelfSigned:  cert.SelfSigned(),
		IsCA:        cert.IsCA,
		DER:         base64.StdEncoding.EncodeToString(cert.Raw),
	})
}

type certSetJSON struct {
	Key   string   `json:"key"`
	Count int      `json:"count"`
	Certs []string `json:"certs"`
}

func (s *server) handleSPKI(w http.ResponseWriter, r *http.Request) int {
	spki, err := parseFingerprint(r.PathValue("spki"))
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad spki: %v", err))
	}
	fps, ok, err := s.st.BySPKI(spki)
	if err != nil {
		return writeErr(w, http.StatusInternalServerError, err.Error())
	}
	if !ok {
		return writeErr(w, http.StatusNotFound, "not found")
	}
	return writeJSON(w, http.StatusOK, certSetJSON{Key: spki.String(), Count: len(fps), Certs: fpStrings(fps)})
}

type sightingJSON struct {
	Scan        int       `json:"scan"`
	Operator    string    `json:"operator"`
	Time        time.Time `json:"time"`
	Fingerprint string    `json:"fingerprint"`
}

type ipJSON struct {
	IP        string         `json:"ip"`
	Count     int            `json:"count"`
	Sightings []sightingJSON `json:"sightings"`
}

func (s *server) handleIP(w http.ResponseWriter, r *http.Request) int {
	ip, err := netsim.ParseIP(r.PathValue("ip"))
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad ip: %v", err))
	}
	sightings, ok, err := s.st.ByIP(ip)
	if err != nil {
		return writeErr(w, http.StatusInternalServerError, err.Error())
	}
	if !ok {
		return writeErr(w, http.StatusNotFound, "not found")
	}
	out := ipJSON{IP: r.PathValue("ip"), Count: len(sightings), Sightings: make([]sightingJSON, len(sightings))}
	for i, sg := range sightings {
		out.Sightings[i] = sightingJSON{
			Scan:        sg.Scan,
			Operator:    sg.Operator.String(),
			Time:        sg.Time,
			Fingerprint: sg.Fingerprint.String(),
		}
	}
	return writeJSON(w, http.StatusOK, out)
}

func (s *server) handleAS(w http.ResponseWriter, r *http.Request) int {
	asn, err := strconv.Atoi(r.PathValue("asn"))
	if err != nil || asn < 0 {
		return writeErr(w, http.StatusBadRequest, "bad asn: want a non-negative integer")
	}
	fps, ok, err := s.st.ByAS(asn)
	if err != nil {
		return writeErr(w, http.StatusInternalServerError, err.Error())
	}
	if !ok {
		return writeErr(w, http.StatusNotFound, "not found")
	}
	return writeJSON(w, http.StatusOK, certSetJSON{Key: strconv.Itoa(asn), Count: len(fps), Certs: fpStrings(fps)})
}

type findingJSON struct {
	Lint     string `json:"lint"`
	Version  int    `json:"version"`
	Severity string `json:"severity"`
	Detail   string `json:"detail,omitempty"`
}

type lintJSON struct {
	Fingerprint string        `json:"fingerprint"`
	Count       int           `json:"count"`
	Findings    []findingJSON `json:"findings"`
}

// handleLint serves the persisted findings of one certificate from the lint
// sidecar column. A fingerprint in the column with zero findings is a clean
// 200 — absence of findings is an answer, not a miss.
func (s *server) handleLint(w http.ResponseWriter, r *http.Request) int {
	fp, err := parseFingerprint(r.PathValue("fp"))
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad fingerprint: %v", err))
	}
	if s.lint == nil {
		return writeErr(w, http.StatusNotFound, "no lint column loaded (serve with -lint findings.lc)")
	}
	findings, ok := s.lint.Findings(fp)
	if !ok {
		return writeErr(w, http.StatusNotFound, "not found")
	}
	out := lintJSON{Fingerprint: fp.String(), Count: len(findings), Findings: make([]findingJSON, len(findings))}
	for i, f := range findings {
		out.Findings[i] = findingJSON{
			Lint:     f.LintID,
			Version:  f.Version,
			Severity: f.Severity.String(),
			Detail:   f.Detail,
		}
	}
	return writeJSON(w, http.StatusOK, out)
}

func fpStrings(fps []x509lite.Fingerprint) []string {
	out := make([]string, len(fps))
	for i, fp := range fps {
		out[i] = fp.String()
	}
	return out
}
