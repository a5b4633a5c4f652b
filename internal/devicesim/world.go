// Package devicesim generates the synthetic population whose certificates the
// scans observe: end-user devices with vendor behaviour profiles
// (key management, Common Name schemes, reissue cadence, clock quality,
// AS placement) and CA-certified websites. The profiles are parameterised
// from the paper's findings, so running the paper's analyses over a scan of
// this population reproduces its distributions — see DESIGN.md for the
// substitution argument.
package devicesim

import (
	"crypto/ed25519"
	"fmt"
	"sync/atomic"
	"time"

	"securepki/internal/certmutate"
	"securepki/internal/netsim"
	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// Config controls world generation. The zero value is not valid; use
// DefaultConfig and adjust.
type Config struct {
	Seed uint64
	// NumDevices is the end-user device population (invalid certificates).
	NumDevices int
	// NumSites is the website population (valid certificates).
	NumSites int
	// Start anchors the dataset timeline (the paper's first UMich scan was
	// 2012-06-10).
	Start time.Time
	// AliveAtStartFraction of hosts exist when the timeline opens; the rest
	// are born uniformly over GrowthDays, making populations rise as in
	// Figure 2.
	AliveAtStartFraction float64
	GrowthDays           int

	// MutateFrac applies certmutate's population-class operators to roughly
	// this fraction of devices (0 disables mutation entirely). Whether and how
	// a device mutates is a pure function of (MutateSeed, device ID), so the
	// mutated population is bit-identical at any generator chunk size. Sites
	// are never mutated — the paper's valid population stays valid.
	MutateFrac float64
	// MutateSeed seeds the mutator; 0 derives one from Seed so mutated worlds
	// stay reproducible without extra flags.
	MutateSeed uint64
}

// DefaultConfig returns the standard world sizing used by the experiments:
// large enough for every distribution to be measurable, small enough to
// generate in seconds.
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		NumDevices:           8600,
		NumSites:             3700,
		Start:                time.Date(2012, 6, 10, 0, 0, 0, 0, time.UTC),
		AliveAtStartFraction: 0.45,
		GrowthDays:           1025, // through the end of the Rapid7 series
	}
}

// Host is anything a scan can observe: devices and sites.
type Host interface {
	// Appearances reports the (IP, chain) pairs a scan over [start, end)
	// would see for this host, advancing the host's internal clock to end.
	// Each leaf is pending until Appearance.Materialize.
	Appearances(start, end time.Time, scanRNG *stats.RNG) []Appearance
}

// World is the assembled population plus the Internet it lives in.
type World struct {
	Config   Config
	Internet *netsim.Internet
	Devices  []*Device
	Sites    []*Site

	pki     *hierarchy
	pickers map[Region]*stats.WeightedPicker[*netsim.AS]

	profileEpochs map[string]time.Time
	vendorCAKeys  map[string]ed25519.PrivateKey
	vendorCerts   map[string]*x509lite.Certificate
	sharedKeys    map[string]*lazyKey
	mutator       *certmutate.Mutator // nil unless Config.MutateFrac > 0

	// signs and keygens count the Ed25519 signatures and key derivations
	// the world has run (see Signs and Keygens). Scan workers sign, so
	// both are atomic.
	signs, keygens atomic.Int64

	// Transfers lists the prefix bulk-transfer events wired into the
	// Internet (§7.3 ground truth).
	Transfers []TransferEvent
}

// TransferEvent describes one scheduled prefix re-homing.
type TransferEvent struct {
	Prefix netsim.Prefix
	From   int
	To     int
	At     time.Time
}

// Roots returns the trusted roots (the simulation's OS root store).
func (w *World) Roots() []*x509lite.Certificate { return w.pki.Roots() }

// Hosts returns all scannable hosts (devices then sites).
func (w *World) Hosts() []Host {
	out := make([]Host, 0, len(w.Devices)+len(w.Sites))
	for _, d := range w.Devices {
		out = append(out, d)
	}
	for _, s := range w.Sites {
		out = append(out, s)
	}
	return out
}

func (w *World) vendorCAKey(p *Profile) ed25519.PrivateKey {
	key, ok := w.vendorCAKeys[p.Name]
	if !ok {
		panic(fmt.Sprintf("devicesim: no vendor CA key for profile %s", p.Name))
	}
	return key
}

func (w *World) sharedDeviceKey(p *Profile) *lazyKey {
	k, ok := w.sharedKeys[p.Name]
	if !ok {
		panic(fmt.Sprintf("devicesim: no shared device key for profile %s", p.Name))
	}
	return k
}

// Signs reports how many certificates the world has signed so far: the
// trust hierarchy and vendor CAs when it is built, then each host
// certificate when a scan or caller first needs it. The count is
// deterministic — each drawn certificate is signed at most once, whichever
// goroutine asks first — so a scan's share depends only on what it
// observed, not on its worker count.
func (w *World) Signs() int64 { return w.signs.Load() }

// Keygens reports how many Ed25519 key pairs the world has derived from
// drawn seeds so far; like Signs, each drawn key costs at most one.
func (w *World) Keygens() int64 { return w.keygens.Load() }

// BuildWorld constructs the full simulation deterministically from cfg. It
// is a full drain of the streaming Generator — the in-memory and streaming
// build paths share one population loop, so they cannot drift.
func BuildWorld(cfg Config) (*World, error) {
	gen, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	w := gen.World()
	w.Devices = make([]*Device, 0, cfg.NumDevices)
	w.Sites = make([]*Site, 0, cfg.NumSites)
	for {
		batch := gen.Next(4096)
		if batch == nil {
			break
		}
		for _, h := range batch {
			switch v := h.(type) {
			case *Device:
				w.Devices = append(w.Devices, v)
			case *Site:
				w.Sites = append(w.Sites, v)
			}
		}
	}
	return w, nil
}

func birthTime(cfg Config, r *stats.RNG) time.Time {
	if r.Float64() < cfg.AliveAtStartFraction {
		return cfg.Start
	}
	return cfg.Start.AddDate(0, 0, r.Intn(cfg.GrowthDays))
}

func buildProfilePicker(profiles []*Profile) *stats.WeightedPicker[*Profile] {
	choices := make([]stats.WeightedChoice[*Profile], 0, len(profiles))
	for _, p := range profiles {
		choices = append(choices, stats.WeightedChoice[*Profile]{Item: p, Weight: p.Weight})
	}
	return stats.NewWeightedPicker(choices)
}

// ExtractDeviceKey hands over a device's current private key — the
// simulation equivalent of dumping it from firmware. It exists for the
// impersonation example (§5.2's shared-key attack) and for tests; the
// measurement pipeline never touches private keys.
func (w *World) ExtractDeviceKey(d *Device) ed25519.PrivateKey {
	_, priv := d.key.pair(w)
	return priv
}
