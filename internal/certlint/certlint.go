// Package certlint is a pluggable, pkimetal-style certificate lint registry
// specialised for the pathologies the paper catalogues in end-user-device
// certificates: negative and absurd validity periods, IP-address and empty
// subjects, missing revocation plumbing, bogus versions, firmware-epoch
// timestamps, and keys shared across unrelated certificates.
//
// Each check is a Linter with a stable ID, a version, a four-level severity
// and an applicability profile (leaf/subordinate/root plus the device classes
// of the simulated population). Default() returns the built-in battery;
// Registry.RunCert lints one certificate and Registry.RunCorpus a whole
// population through the deterministic worker pool, byte-identical at any
// worker count. certlint.json (LoadConfig) disables, rescopes or suppresses
// individual linters with the same per-rule replace semantics as
// repolint.json. Survey aggregates prevalence over a population — the §5
// "why is so much of the PKI invalid" analysis in executable form.
package certlint

import (
	"fmt"
	"sort"
	"strings"

	"securepki/internal/x509lite"
)

// RunAll lints one certificate against the default registry with optional
// population context — the pre-registry entry point, kept for callers that
// need neither config nor corpus batching.
func RunAll(c *x509lite.Certificate, ctx *Context) []Finding {
	return Default().RunCert(c, ctx, nil)
}

// SurveyRow is one lint's prevalence in a population split.
type SurveyRow struct {
	LintID       string
	Severity     Severity
	ValidFrac    float64
	InvalidFrac  float64
	ValidCount   int
	InvalidCount int
}

// Survey lints a whole population and reports per-lint prevalence among
// valid and invalid certificates — the executable version of §5's "invalid
// certificates are a fundamentally different population".
func Survey(certs []*x509lite.Certificate, invalid func(*x509lite.Certificate) bool) []SurveyRow {
	// Build the key-sharing context first.
	ctx := &Context{KeyCount: SharedKeys(len(certs), func(i int) x509lite.Fingerprint {
		return certs[i].PublicKeyFingerprint()
	})}

	type agg struct {
		sev            Severity
		valid, invalid int
	}
	rows := make(map[string]*agg)
	var nValid, nInvalid int
	for _, c := range certs {
		isInvalid := invalid(c)
		if isInvalid {
			nInvalid++
		} else {
			nValid++
		}
		for _, f := range RunAll(c, ctx) {
			a, ok := rows[f.LintID]
			if !ok {
				a = &agg{sev: f.Severity}
				rows[f.LintID] = a
			}
			if isInvalid {
				a.invalid++
			} else {
				a.valid++
			}
		}
	}

	out := make([]SurveyRow, 0, len(rows))
	for id, a := range rows {
		row := SurveyRow{LintID: id, Severity: a.sev, ValidCount: a.valid, InvalidCount: a.invalid}
		if nValid > 0 {
			row.ValidFrac = float64(a.valid) / float64(nValid)
		}
		if nInvalid > 0 {
			row.InvalidFrac = float64(a.invalid) / float64(nInvalid)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].InvalidFrac != out[j].InvalidFrac {
			return out[i].InvalidFrac > out[j].InvalidFrac
		}
		return out[i].LintID < out[j].LintID
	})
	return out
}

// FormatSurvey renders survey rows as a table.
func FormatSurvey(rows []SurveyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-8s %10s %10s\n", "lint", "severity", "valid", "invalid")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %-8s %9.1f%% %9.1f%%\n", r.LintID, r.Severity, 100*r.ValidFrac, 100*r.InvalidFrac)
	}
	return b.String()
}

func isPrivateIPString(s string) bool {
	if !x509lite.LooksLikeIPv4(s) {
		return false
	}
	return strings.HasPrefix(s, "10.") ||
		strings.HasPrefix(s, "192.168.") ||
		isRFC1918SecondOctet(s)
}

func isRFC1918SecondOctet(s string) bool {
	if !strings.HasPrefix(s, "172.") {
		return false
	}
	rest := strings.TrimPrefix(s, "172.")
	dot := strings.IndexByte(rest, '.')
	if dot <= 0 {
		return false
	}
	second := 0
	for _, c := range rest[:dot] {
		second = second*10 + int(c-'0')
	}
	return second >= 16 && second <= 31
}
