package certlint

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// LintConfig adjusts one linter, keyed by its stable ID. Semantics mirror
// the repolint.json rule config:
//
//   - disabled — skip the linter entirely.
//   - only — restrict the linter to certificates matching any of the listed
//     profile names, replacing its built-in applicability mask.
//   - allow — suppress findings for certificates whose subject or issuer
//     one-line name contains any of the listed substrings (the "known
//     acceptable" escape hatch).
type LintConfig struct {
	Disabled bool     `json:"disabled,omitempty"`
	Only     []string `json:"only,omitempty"`
	Allow    []string `json:"allow,omitempty"`

	// onlyMask is Only resolved to profile bits at load time.
	onlyMask Profile
}

// Config is the parsed certlint.json: per-lint overrides over the built-in
// defaults (every registered linter enabled with its declared profiles).
type Config struct {
	Lints map[string]*LintConfig `json:"lints"`
}

// DefaultConfig returns the zero adjustment: all linters enabled, built-in
// profiles, no suppressions.
func DefaultConfig() *Config {
	return &Config{Lints: map[string]*LintConfig{}}
}

// LoadConfig reads a certlint.json and merges it over DefaultConfig. The
// merge replaces whole per-lint entries rather than merging field-by-field,
// as a repolint.json rule entry is taken whole: configuring a lint at all
// means taking full responsibility for that lint's settings.
func LoadConfig(path string) (*Config, error) {
	cfg := DefaultConfig()
	if path == "" {
		return cfg, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("certlint: read config: %w", err)
	}
	var file Config
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("certlint: parse config %s: %w", path, err)
	}
	for id, lc := range file.Lints {
		if lc == nil {
			lc = &LintConfig{}
		}
		for _, name := range lc.Only {
			bit, ok := ParseProfile(name)
			if !ok {
				return nil, fmt.Errorf("certlint: config %s: lint %s: unknown profile %q", path, id, name)
			}
			lc.onlyMask |= bit
		}
		cfg.Lints[id] = lc
	}
	return cfg, nil
}

// lintConfig returns the entry for a lint ID, or nil when unconfigured.
func (cfg *Config) lintConfig(id string) *LintConfig {
	if cfg == nil || cfg.Lints == nil {
		return nil
	}
	return cfg.Lints[id]
}

// effectiveProfiles resolves the applicability mask for a linter under this
// config: the config's "only" mask when set, else the linter's own.
func (cfg *Config) effectiveProfiles(l Linter) Profile {
	if lc := cfg.lintConfig(l.ID); lc != nil && len(lc.Only) > 0 {
		return lc.onlyMask
	}
	return l.Profiles
}

// suppressed reports whether a finding on a certificate with the given
// subject and issuer one-line names is allowlisted for this lint.
func (cfg *Config) suppressed(id, subject, issuer string) bool {
	lc := cfg.lintConfig(id)
	if lc == nil {
		return false
	}
	for _, pat := range lc.Allow {
		if pat == "" {
			continue
		}
		if strings.Contains(subject, pat) || strings.Contains(issuer, pat) {
			return true
		}
	}
	return false
}
