// Package securepki reproduces "Measuring and Applying Invalid SSL
// Certificates: The Silent Majority" (IMC 2016) end to end: it generates a
// synthetic Internet population of certificate-serving devices and websites,
// runs ZMap-style scan campaigns over it, validates every certificate the
// way the paper did, links invalid certificates back to the devices that
// issued them (§6), and tracks those devices across the address space (§7).
//
// The package is a thin facade over the internal pipeline. The examples
// start from it; the commands in cmd/ drive internal/core directly, and the
// benchmarks beside it also use the linking, truststore and x509lite
// packages for their ablation and stage benches.
//
// Quick start:
//
//	p, err := securepki.Run(securepki.SmallConfig())
//	if err != nil { ... }
//	for _, exp := range securepki.Experiments() {
//	    fmt.Printf("== %s: %s\n%s\n", exp.ID, exp.Title, exp.Run(p))
//	}
//
// Stages can also be run individually (Generate → Scan → Validate → Link →
// Track) to interleave custom analyses; see the Pipeline type.
package securepki

import (
	"context"
	"time"

	"securepki/internal/core"
	"securepki/internal/devicesim"
	"securepki/internal/linking"
	"securepki/internal/scanner"
	"securepki/internal/tracking"
	"securepki/internal/wire"
	"securepki/internal/x509lite"
)

// Core pipeline types, re-exported.
type (
	// Config assembles world, scan-campaign and linking parameters.
	Config = core.Config
	// Pipeline carries every artefact of one full run: the generated
	// world, the scan corpus, validation outcomes, the linking result and
	// the device tracker.
	Pipeline = core.Pipeline
	// Experiment regenerates one table or figure of the paper.
	Experiment = core.Experiment

	// WorldConfig sizes the simulated population (devicesim.Config).
	WorldConfig = devicesim.Config
	// ScanConfig shapes the two operators' campaigns (scanner.Config).
	ScanConfig = scanner.Config
	// LinkingConfig tunes the §6 pipeline (linking.Config).
	LinkingConfig = linking.Config

	// Certificate is the parsed X.509 structure used throughout.
	Certificate = x509lite.Certificate
	// CertTemplate describes a certificate to create.
	CertTemplate = x509lite.Template
	// Name is an X.509 distinguished name subset.
	Name = x509lite.Name
	// Fingerprint is the SHA-256 identity of a certificate or key.
	Fingerprint = x509lite.Fingerprint

	// ASReassignment is one AS's inferred address policy (§7.4).
	ASReassignment = tracking.ASReassignment
	// WireServer presents a certificate chain on a real TCP socket.
	WireServer = wire.Server
	// WireResult is one endpoint's outcome from a network sweep.
	WireResult = wire.Result
)

// DefaultConfig returns the standard experiment sizing: every distribution
// in the paper is measurable, and a full run takes tens of seconds.
func DefaultConfig() Config { return core.DefaultConfig() }

// SmallConfig returns a reduced sizing for quick runs; results are noisier
// but the pipeline completes in a few seconds.
func SmallConfig() Config { return core.SmallConfig() }

// Run executes the full pipeline: generate → scan → validate → link → track.
func Run(cfg Config) (*Pipeline, error) { return core.Run(cfg) }

// Experiments returns the registry of every reproduced table and figure, in
// paper order.
func Experiments() []Experiment { return core.Experiments() }

// FindExperiment looks up one experiment by ID ("fig3", "table6", ...).
func FindExperiment(id string) (Experiment, bool) { return core.Find(id) }

// Year is the §7 trackability threshold (365 days).
const Year = core.Year

// ParseCertificate decodes a DER certificate with the library's own X.509
// codec.
func ParseCertificate(der []byte) (*Certificate, error) { return x509lite.Parse(der) }

// ServeChain starts a wire-protocol server on addr presenting the chain the
// provider returns (leaf first); see the netscan example.
func ServeChain(addr string, provider func() [][]byte) (*WireServer, error) {
	return wire.NewServer(addr, provider)
}

// ScanTargets sweeps host:port endpoints concurrently and returns each
// endpoint's presented chain, zgrab-style.
func ScanTargets(ctx context.Context, targets []string, workers int, perTarget time.Duration) []WireResult {
	return wire.Scan(ctx, targets, workers, perTarget)
}
