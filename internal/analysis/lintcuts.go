package analysis

import (
	"fmt"
	"sort"
	"strings"

	"securepki/internal/certlint"
	"securepki/internal/netsim"
	"securepki/internal/scanstore"
)

// The paper attributes invalid certificates to issuers, networks and device
// populations (§5.3–§5.5). LintCuts applies the same attribution to lint
// findings: given a corpus lint run in CertID order — live from
// certlint.RunCorpus or loaded back from a persisted findings column — it
// cuts the findings by device class, by issuer, and by dominant AS, so a
// structural defect can be traced to the population that ships it.
// LintSurvey splits the same run by validity. Both read certificate id's
// findings at results[id], so results must cover the dataset's corpus.

// LintCutRow aggregates the findings attributed to one group.
type LintCutRow struct {
	Label    string
	Certs    int // observed certificates in the group carrying >=1 finding
	Findings int
	// BySeverity counts findings per severity, indexed by certlint.Severity.
	BySeverity [certlint.NumSeverities]int
	// TopLint is the group's most frequent lint ID (ties break toward the
	// lexically smaller ID) and TopLintN its count.
	TopLint  string
	TopLintN int
}

// LintCutsReport is the downstream view of one corpus lint run.
type LintCutsReport struct {
	// Certs / Findings cover every observed certificate with findings.
	Certs      int
	Findings   int
	BySeverity [certlint.NumSeverities]int

	// ByDeviceClass covers all groups; ByIssuer and ByAS keep the topN.
	ByDeviceClass []LintCutRow
	ByIssuer      []LintCutRow
	ByAS          []LintCutRow
}

// lintCutAccum accumulates one group before rank extraction.
type lintCutAccum struct {
	certs    int
	findings int
	bySev    [certlint.NumSeverities]int
	perLint  map[string]int
}

func (a *lintCutAccum) add(findings []certlint.Finding) {
	a.certs++
	for _, f := range findings {
		a.findings++
		if f.Severity >= 0 && int(f.Severity) < certlint.NumSeverities {
			a.bySev[f.Severity]++
		}
		if a.perLint == nil {
			a.perLint = make(map[string]int)
		}
		a.perLint[f.LintID]++
	}
}

// LintCuts joins a corpus lint run (results[id] is certificate id's) against
// the dataset and cuts it by device class, issuer, and dominant AS.
// Certificates without findings, and certificates never observed on the
// wire, are excluded. topN bounds the issuer and AS tables; the device-class
// table is always complete.
func (d *Dataset) LintCuts(results []certlint.CertFindings, topN int) LintCutsReport {
	byDevice := make(map[string]*lintCutAccum)
	byIssuer := make(map[string]*lintCutAccum)
	byAS := make(map[string]*lintCutAccum)
	var rep LintCutsReport

	accumInto := func(m map[string]*lintCutAccum, label string, fs []certlint.Finding) {
		a := m[label]
		if a == nil {
			a = &lintCutAccum{}
			m[label] = a
		}
		a.add(fs)
	}

	attr := d.dominantASes()
	asNames := make(map[*netsim.AS]string)
	d.EachObserved(func(rec *scanstore.CertRecord, invalid bool) {
		fs := results[rec.ID].Findings
		if len(fs) == 0 {
			return
		}
		rep.Certs++
		for _, f := range fs {
			rep.Findings++
			if f.Severity >= 0 && int(f.Severity) < certlint.NumSeverities {
				rep.BySeverity[f.Severity]++
			}
		}

		accumInto(byDevice, ClassifyDevice(rec.Cert), fs)

		issuer := rec.Cert.Issuer.CommonName
		if issuer == "" {
			issuer = emptyIssuerLabel
		}
		accumInto(byIssuer, issuer, fs)

		// The dominant AS, as ASDiversity attributes it.
		if as := attr[rec.ID].dom; as != nil {
			name, ok := asNames[as]
			if !ok {
				name = as.Name()
				asNames[as] = name
			}
			accumInto(byAS, name, fs)
		}
	})

	rep.ByDeviceClass = rankLintCut(byDevice, 0)
	rep.ByIssuer = rankLintCut(byIssuer, topN)
	rep.ByAS = rankLintCut(byAS, topN)
	return rep
}

// rankLintCut extracts a deterministic table from a group map: rows sorted by
// findings desc, then certs desc, then label asc; topN <= 0 keeps all rows.
func rankLintCut(m map[string]*lintCutAccum, topN int) []LintCutRow {
	rows := make([]LintCutRow, 0, len(m))
	for label, a := range m {
		row := LintCutRow{
			Label:      label,
			Certs:      a.certs,
			Findings:   a.findings,
			BySeverity: a.bySev,
		}
		for id, n := range a.perLint {
			if n > row.TopLintN || (n == row.TopLintN && id < row.TopLint) {
				row.TopLint, row.TopLintN = id, n
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Findings != rows[j].Findings {
			return rows[i].Findings > rows[j].Findings
		}
		if rows[i].Certs != rows[j].Certs {
			return rows[i].Certs > rows[j].Certs
		}
		return rows[i].Label < rows[j].Label
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	return rows
}

// FormatLintCuts renders the report's three tables for terminal output.
func FormatLintCuts(rep LintCutsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lint findings over observed certificates: %d findings on %d certs", rep.Findings, rep.Certs)
	fmt.Fprintf(&b, " (INFO %d, WARN %d, ERROR %d, FATAL %d)\n\n",
		rep.BySeverity[certlint.Info], rep.BySeverity[certlint.Warn],
		rep.BySeverity[certlint.Error], rep.BySeverity[certlint.Fatal])
	formatLintCutTable(&b, "By device class", rep.ByDeviceClass)
	formatLintCutTable(&b, "By issuer", rep.ByIssuer)
	formatLintCutTable(&b, "By AS", rep.ByAS)
	return b.String()
}

func formatLintCutTable(b *strings.Builder, title string, rows []LintCutRow) {
	fmt.Fprintf(b, "%s\n%-46s %8s %9s  %s\n", title, "group", "certs", "findings", "top lint")
	for _, r := range rows {
		label := r.Label
		if len(label) > 46 {
			label = label[:43] + "..."
		}
		fmt.Fprintf(b, "%-46s %8d %9d  %s (%d)\n", label, r.Certs, r.Findings, r.TopLint, r.TopLintN)
	}
	b.WriteString("\n")
}

// LintSurveyRow is one lint's prevalence among the observed valid and
// invalid certificates.
type LintSurveyRow struct {
	LintID       string
	Severity     certlint.Severity
	ValidFrac    float64
	InvalidFrac  float64
	ValidCount   int
	InvalidCount int
}

// LintSurvey reports per-lint prevalence among valid and invalid
// certificates — the executable version of §5's "invalid certificates are a
// fundamentally different population". It joins a corpus lint run against
// the dataset as LintCuts does: the fractions are over observed
// certificates, and findings for certificates never observed on the wire
// are excluded. Rows are sorted by invalid prevalence, then lint ID.
func (d *Dataset) LintSurvey(results []certlint.CertFindings) []LintSurveyRow {
	type agg struct {
		sev            certlint.Severity
		valid, invalid int
	}
	rows := make(map[string]*agg)
	var nValid, nInvalid int
	d.EachObserved(func(rec *scanstore.CertRecord, invalid bool) {
		if invalid {
			nInvalid++
		} else {
			nValid++
		}
		for _, f := range results[rec.ID].Findings {
			a, ok := rows[f.LintID]
			if !ok {
				a = &agg{sev: f.Severity}
				rows[f.LintID] = a
			}
			if invalid {
				a.invalid++
			} else {
				a.valid++
			}
		}
	})

	out := make([]LintSurveyRow, 0, len(rows))
	for id, a := range rows {
		row := LintSurveyRow{LintID: id, Severity: a.sev, ValidCount: a.valid, InvalidCount: a.invalid}
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

// FormatLintSurvey renders survey rows as a table.
func FormatLintSurvey(rows []LintSurveyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-8s %10s %10s\n", "lint", "severity", "valid", "invalid")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %-8s %9.1f%% %9.1f%%\n", r.LintID, r.Severity, 100*r.ValidFrac, 100*r.InvalidFrac)
	}
	return b.String()
}
