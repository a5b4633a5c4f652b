package gostatic

import (
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Driver runs a set of analyzers over loaded packages with suppression and
// allowlist filtering.
type Driver struct {
	Analyzers []*Analyzer
	// Config is the effective configuration (repolint.json); nil runs every
	// rule everywhere with no allowlist.
	Config *Config
}

// Run analyzes every package and returns the surviving findings in
// deterministic order (file, line, column, rule).
func (d *Driver) Run(l *Loader, pkgs []*Package) []Finding {
	cfg := d.Config
	relFile := func(pos token.Position) string {
		rel, err := filepath.Rel(l.ModuleRoot, pos.Filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			return pos.Filename
		}
		return filepath.ToSlash(rel)
	}

	var all []Finding
	for _, pkg := range pkgs {
		if pkg == nil || len(pkg.Files) == 0 {
			continue
		}
		ignores := collectIgnores(pkg, l.Fset, relFile)
		for _, an := range d.Analyzers {
			rc := cfg.Rule(an.Name)
			if rc.Disabled {
				continue
			}
			if len(rc.Only) > 0 && !MatchAny(pkg.Rel, rc.Only) {
				continue
			}
			pass := &Pass{
				Fset:    l.Fset,
				Files:   pkg.Files,
				Pkg:     pkg.Types,
				Info:    pkg.Info,
				Rel:     pkg.Rel,
				Config:  rc,
				rule:    an.Name,
				relFile: relFile,
				report: func(f Finding) {
					if MatchAny(f.File, rc.Allow) {
						return
					}
					for _, ig := range ignores {
						if ig.matches(f) {
							return
						}
					}
					all = append(all, f)
				},
			}
			an.Run(pass)
		}
	}
	SortFindings(all)
	return dedupe(all)
}

// dedupe drops exact-duplicate findings (a rule may legitimately visit the
// same node twice, e.g. through nested inspections); input must be sorted.
func dedupe(fs []Finding) []Finding {
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// RuleNames returns the driver's rule IDs, sorted.
func (d *Driver) RuleNames() []string {
	names := make([]string, 0, len(d.Analyzers))
	for _, a := range d.Analyzers {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}
