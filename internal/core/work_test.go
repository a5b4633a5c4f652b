package core

import (
	"io"
	"testing"

	"securepki/internal/obs"
	"securepki/internal/truststore"
)

// wantWork is the Ed25519 work of a SmallConfig build, per stage. Every
// count is a pure function of the population and the scans, so it holds at
// any worker count; a change to it is a change in work, visible as a
// metrics diff rather than as timing noise.
var wantWork = map[string]int64{
	"core.generate.x509.sign":   46,
	"core.generate.x509.keygen": 46,
	"core.scan.x509.sign":       5839,
	"core.scan.x509.keygen":     3524,
	"core.validate.x509.verify": 5464,
	"core.lint.x509.verify":     717,
}

// TestEd25519WorkCounters pins the per-stage work counters at workers 1, 4
// and 16, and checks the streamed build path against them at 4. The
// resident lint stage verifies only what validation never self-checked —
// valid certificates (a trusted chain is found first) and bad-version ones
// (rejected before any check) — while the streamed path, which has no
// validate stage, verifies every certificate once in lint. Signing is the
// same on both paths: each certificate a scan returns is signed once. The
// lint.* certificate and finding counts match the resident run's.
func TestEd25519WorkCounters(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		cfg := SmallConfig()
		cfg.Workers, cfg.Scan.Workers = workers, workers
		reg := obs.NewRegistry()
		cfg.Obs = reg
		p := &Pipeline{Config: cfg}
		if err := p.Generate(); err != nil {
			t.Fatal(err)
		}
		if err := p.Scan(); err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		p.Lint()
		for name, want := range wantWork {
			if got := reg.Counter(name).Value(); got != want {
				t.Errorf("workers=%d resident: %s = %d, want %d", workers, name, got, want)
			}
		}
		unchecked := int64(p.ValidationCounts[truststore.Valid] + p.ValidationCounts[truststore.BadVersion])
		if got := reg.Counter("core.lint.x509.verify").Value(); got != unchecked {
			t.Errorf("workers=%d resident: lint verified %d certificates, want the %d valid and bad-version ones", workers, got, unchecked)
		}

		if workers != 4 {
			continue // one streamed build covers that path; each costs a full build
		}
		scfg := cfg
		sreg := obs.NewRegistry()
		scfg.Obs = sreg
		scfg.Stream = StreamConfig{ChunkSize: 300} // split fleets across chunks
		if _, err := StreamSnapshot(scfg, true, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"core.generate.x509.sign", "core.generate.x509.keygen", "core.scan.x509.sign", "core.scan.x509.keygen"} {
			if got, want := sreg.Counter(name).Value(), wantWork[name]; got != want {
				t.Errorf("workers=%d streamed: %s = %d, want %d as resident", workers, name, got, want)
			}
		}
		if got, want := sreg.Counter("core.lint.x509.verify").Value(), int64(p.Corpus.NumCerts()); got != want {
			t.Errorf("workers=%d streamed: lint verified %d certificates, want all %d", workers, got, want)
		}
		// Both paths run one lint driver, so they lint and find the same.
		for _, name := range []string{"lint.certs", "lint.findings", "lint.findings.info", "lint.findings.warn", "lint.findings.error", "lint.findings.fatal"} {
			if got, want := sreg.Counter(name).Value(), reg.Counter(name).Value(); got != want {
				t.Errorf("workers=%d streamed: %s = %d, want %d as resident", workers, name, got, want)
			}
		}
	}
}
