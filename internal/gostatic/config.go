package gostatic

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Config is the repolint.json schema: per-rule applicability and allowlists.
type Config struct {
	// Rules maps rule ID to its configuration. A rule absent from the map
	// runs everywhere with no allowlist.
	Rules map[string]*RuleConfig `json:"rules"`
}

// RuleConfig scopes one rule.
type RuleConfig struct {
	// Disabled switches the rule off entirely.
	Disabled bool `json:"disabled,omitempty"`
	// Only restricts the rule to packages whose module-relative path
	// matches one of these patterns (see MatchPath). Empty = everywhere.
	Only []string `json:"only,omitempty"`
	// Allow suppresses findings whose file or package path matches one of
	// these patterns — the per-rule allowlist.
	Allow []string `json:"allow,omitempty"`
	// Banned lists layering constraints; consumed by the bannedimport rule.
	Banned []BannedImport `json:"banned,omitempty"`
}

// BannedImport forbids a set of imports from a set of packages.
type BannedImport struct {
	// Package is a path pattern selecting the constrained packages.
	Package string `json:"package"`
	// Imports are import-path prefixes the packages must not use.
	Imports []string `json:"imports"`
	// Reason explains the layering rule in findings.
	Reason string `json:"reason,omitempty"`
}

// Rule returns the effective config for a rule, never nil. A nil Config, or
// one that does not name the rule, runs it everywhere with no allowlist.
func (c *Config) Rule(name string) *RuleConfig {
	if c != nil && c.Rules != nil {
		if rc, ok := c.Rules[name]; ok && rc != nil {
			return rc
		}
	}
	return &RuleConfig{}
}

// LoadConfig reads a repolint.json file, the one static-analysis policy:
// rules it does not name run everywhere with no allowlist.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("gostatic: %s: %w", path, err)
	}
	return &cfg, nil
}

// MatchPath reports whether a module-relative path (package or file) matches
// a pattern. A pattern matches when it equals the path, is a directory
// prefix of it, or appears inside it on path-segment boundaries — the last
// case is what lets testdata fixture packages named after real packages
// (e.g. .../testdata/src/internal/x509lite) exercise the production rules.
func MatchPath(rel, pattern string) bool {
	if pattern == "" {
		return false
	}
	if rel == pattern || strings.HasPrefix(rel, pattern+"/") {
		return true
	}
	if strings.Contains(rel, "/"+pattern+"/") || strings.HasSuffix(rel, "/"+pattern) {
		return true
	}
	return false
}

// MatchAny reports whether rel matches any pattern.
func MatchAny(rel string, patterns []string) bool {
	for _, p := range patterns {
		if MatchPath(rel, p) {
			return true
		}
	}
	return false
}

// MatchImport reports whether an import path matches a banned pattern:
// exact, or a "/"-boundary prefix (so "securepki" bans the whole module).
func MatchImport(importPath, pattern string) bool {
	return importPath == pattern || strings.HasPrefix(importPath, pattern+"/")
}
