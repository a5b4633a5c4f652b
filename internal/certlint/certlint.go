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
// repolint.json. The pipeline's lint stage lints the corpus once through
// RunCorpus; the §5 "why is so much of the PKI invalid" survey and the
// attribution cuts read its findings (analysis.Dataset.LintSurvey and
// LintCuts).
package certlint

import (
	"strings"

	"securepki/internal/x509lite"
)

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
