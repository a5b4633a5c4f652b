package certlint

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"securepki/internal/obs"
	"securepki/internal/parallel"
	"securepki/internal/x509lite"
)

// Options configures a corpus run.
type Options struct {
	// Workers is the parallel worker knob; <= 0 means GOMAXPROCS. Findings
	// are byte-identical at every setting.
	Workers int
	// Config holds certlint.json adjustments; nil means defaults.
	Config *Config
	// Obs receives lint.* metrics; nil disables them.
	Obs *obs.Registry
}

// CertFindings pairs one certificate's fingerprint with its sorted findings.
type CertFindings struct {
	Fingerprint x509lite.Fingerprint
	Findings    []Finding
}

// RunCert lints one certificate: every enabled, applicable linter in ID
// order, findings sorted by (LintID, Severity). The sort is part of the
// persisted-format contract — see Severity. The findings collect in a
// fixed array, which append leaves only for a certificate that draws more,
// and the details Checks append in one pooled buffer; they return as one
// slice of their exact count (nil for none) whose appended details share
// one string, the only two allocations. A fixed Detail is not copied.
func (r *Registry) RunCert(c *x509lite.Certificate, ctx *Context, cfg *Config) []Finding {
	profiles := ProfilesOf(c)
	var hits [8]Finding
	var ends [8]int // where each hit's appended detail ends in details
	out, detailEnds := hits[:0], ends[:0]
	scratch := detailBufs.Get().(*[]byte)
	details := (*scratch)[:0]
	var subject, issuer string
	named := false
	for _, i := range r.sortedIndexes() {
		l := &r.linters[i]
		if lc := cfg.lintConfig(l.ID); lc != nil && lc.Disabled {
			continue
		}
		if mask := cfg.effectiveProfiles(*l); mask != ProfileAll && mask&profiles == 0 {
			continue
		}
		mark := len(details)
		var hit bool
		if details, hit = l.Check(details, c, ctx); !hit {
			details = details[:mark]
			continue
		}
		if cfg != nil {
			if !named {
				subject, issuer = c.Subject.String(), c.Issuer.String()
				named = true
			}
			if cfg.suppressed(l.ID, subject, issuer) {
				details = details[:mark]
				continue
			}
		}
		out = append(out, Finding{LintID: l.ID, Version: l.Version, Severity: l.Severity, Detail: l.Detail})
		detailEnds = append(detailEnds, len(details))
	}
	all := string(details)
	*scratch = details[:0]
	detailBufs.Put(scratch)
	if len(out) == 0 {
		return nil
	}
	start := 0
	for k, end := range detailEnds {
		if end > start {
			out[k].Detail = all[start:end]
		}
		start = end
	}
	sortFindings(out)
	return slices.Clone(out)
}

// detailBufs holds the buffers RunCert gathers finding details in, one per
// concurrent call.
var detailBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// sortFindings orders findings by (LintID, Severity) — the stable order
// every consumer (reports, the findings column, the goldens) relies on.
func sortFindings(fs []Finding) {
	slices.SortStableFunc(fs, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.LintID, b.LintID), cmp.Compare(a.Severity, b.Severity))
	})
}

// RunCorpus lints a population through the worker pool and returns per-cert
// findings in input order: results[i] is certs[i]'s. The output is
// byte-identical at any worker count: each certificate is linted
// independently and parallel.Map preserves input order. Metrics are counted
// after the barrier, so they are stable too.
func (r *Registry) RunCorpus(certs []*x509lite.Certificate, ctx *Context, opts Options) []CertFindings {
	results := parallel.Map(opts.Workers, len(certs), func(i int) CertFindings {
		c := certs[i]
		return CertFindings{
			Fingerprint: c.Fingerprint(),
			Findings:    r.RunCert(c, ctx, opts.Config),
		}
	})

	if reg := opts.Obs; reg != nil {
		reg.Gauge("lint.linters").Set(int64(r.Len()))
		reg.Counter("lint.certs").Add(int64(len(results)))
		var bySev [NumSeverities]int64
		var total int64
		for _, cf := range results {
			for _, f := range cf.Findings {
				bySev[f.Severity]++
				total++
			}
		}
		reg.Counter("lint.findings").Add(total)
		reg.Counter("lint.findings.info").Add(bySev[Info])
		reg.Counter("lint.findings.warn").Add(bySev[Warn])
		reg.Counter("lint.findings.error").Add(bySev[Error])
		reg.Counter("lint.findings.fatal").Add(bySev[Fatal])
	}
	return results
}
