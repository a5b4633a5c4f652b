package devicesim

import (
	"crypto/ed25519"
	"fmt"
	"math/big"
	"time"

	"securepki/internal/certmutate"
	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// Generator is the iterator seam of the streaming build path: it yields the
// population in fixed-size batches instead of one giant slice, so a 10⁷-host
// world never has to be resident at once. The draw discipline is exactly
// BuildWorld's — the same root splits in the same order, the same per-host
// Split()s, fleet runs carried across batch boundaries — so draining a
// Generator at ANY batch sizing reproduces, host for host and byte for
// byte, the world BuildWorld builds. BuildWorld itself is a full drain of a
// Generator, making the equivalence true by construction;
// generator_test.go pins it against batch-boundary regressions.
//
// The shared parts of the world — the simulated Internet, the PKI
// hierarchy, vendor CAs, profile epochs — are built eagerly (they are small
// and every host references them); only the Devices/Sites population
// streams. World() exposes that base world for consumers that need the
// network view or the timeline anchor but not the population.
type Generator struct {
	w          *World
	profPicker *stats.WeightedPicker[*Profile]
	popRNG     *stats.RNG
	siteRNG    *stats.RNG

	nextDevice int
	nextSite   int

	// Pending fleet run: the population loop draws a profile, a shared
	// birth time and a fleet length, then materialises members one at a
	// time; a batch boundary can land mid-fleet, so the remainder — and
	// the leader's certificate the members must serve — carries over.
	fleetProfile *Profile
	fleetBirth   time.Time
	fleetLeft    int
	fleetCert    *pendingCert
}

// NewGenerator validates cfg and builds the base world (Internet, PKI,
// vendor material) without materialising any host. All five root RNG
// splits happen here, in BuildWorld's historical order: roster, PKI,
// vendors, population, sites. Hoisting the site split ahead of the device
// loop is sound because nothing between the two splits draws from the root
// generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.NumDevices <= 0 || cfg.NumSites < 0 {
		return nil, fmt.Errorf("devicesim: population sizes must be positive (devices=%d sites=%d)", cfg.NumDevices, cfg.NumSites)
	}
	if cfg.Start.IsZero() {
		return nil, fmt.Errorf("devicesim: config missing Start")
	}
	if cfg.MutateFrac < 0 || cfg.MutateFrac > 1 {
		return nil, fmt.Errorf("devicesim: mutate fraction %v outside [0, 1]", cfg.MutateFrac)
	}
	root := stats.NewRNG(cfg.Seed)

	builder, specs, allocated := buildRoster(root.Split())

	w := &World{
		Config:        cfg,
		pickers:       nil,
		profileEpochs: make(map[string]time.Time),
		vendorCAKeys:  make(map[string]ed25519.PrivateKey),
		vendorCerts:   make(map[string]*x509lite.Certificate),
		sharedKeys:    make(map[string]*lazyKey),
	}

	// §7.3 bulk transfers: Verizon hands blocks to MCI twice; AT&T once.
	// Each event re-homes the n-th prefix announced by the source AS.
	intents := []struct {
		from, to, nth int
		at            time.Time
	}{
		{19262, 701, 0, time.Date(2013, 4, 10, 0, 0, 0, 0, time.UTC)},
		{19262, 701, 1, time.Date(2014, 2, 20, 0, 0, 0, 0, time.UTC)},
		{7018, 701, 0, time.Date(2013, 9, 15, 0, 0, 0, 0, time.UTC)},
	}
	var resolved []TransferEvent
	for _, in := range intents {
		prefixes := allocated[in.from]
		if in.nth >= len(prefixes) {
			continue
		}
		p := prefixes[in.nth]
		builder.Transfer(p, in.to, in.at)
		resolved = append(resolved, TransferEvent{Prefix: p, From: in.from, To: in.to, At: in.at})
	}
	inet, err := builder.Build()
	if err != nil {
		return nil, err
	}
	w.Internet = inet
	w.Transfers = resolved
	w.pickers = regionPickers(inet, specs)
	for _, as := range inet.ASes() {
		as.Prime() // make RandomIP safe under concurrent scanning
	}

	pkiRNG := root.Split()
	w.pki = w.buildHierarchy(pkiRNG, cfg.Start)

	profiles := DefaultProfiles()
	profPicker := buildProfilePicker(profiles)
	vendorRNG := root.Split()
	for _, p := range profiles {
		// Firmware epochs: a fixed past date per model line, >1000 days
		// before the scans (Figure 5's right mode).
		w.profileEpochs[p.Name] = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC).
			AddDate(0, 0, vendorRNG.Intn(2500))
		if p.Issuer == IssuerVendorCA {
			pub, priv := w.keyFromRNG(vendorRNG)
			w.vendorCAKeys[p.Name] = priv
			name := x509lite.Name{CommonName: p.IssuerText}
			w.vendorCerts[p.Name] = w.mustCreate(&x509lite.Template{
				Version: 3, SerialNumber: new(big.Int).SetUint64(vendorRNG.Uint64() >> 1),
				Subject: name, Issuer: name,
				NotBefore: w.profileEpochs[p.Name],
				NotAfter:  w.profileEpochs[p.Name].AddDate(30, 0, 0),
				IsCA:      true, IncludeBasicConstraints: true,
			}, pub, priv)
		}
		if p.Key == KeyVendorShared {
			w.sharedKeys[p.Name] = drawKey(vendorRNG)
		}
	}

	if cfg.MutateFrac > 0 {
		// The mutator draws nothing from the root generator: its decisions
		// are keyed by (MutateSeed, device ID) alone, so a mutated world's
		// unmutated devices are byte-identical to the MutateFrac=0 world.
		mseed := cfg.MutateSeed
		if mseed == 0 {
			mseed = cfg.Seed ^ 0x6672616e6b636572 // "frankcer"
		}
		mut, err := certmutate.New(mseed, cfg.MutateFrac)
		if err != nil {
			return nil, err
		}
		w.mutator = mut
	}

	return &Generator{
		w:          w,
		profPicker: profPicker,
		popRNG:     root.Split(),
		siteRNG:    root.Split(),
	}, nil
}

// World returns the base world: network, PKI and vendor material, with the
// population slices empty unless Keep() was used. Scan campaigns compile
// their schedules and blacklists from it.
func (g *Generator) World() *World { return g.w }

// NumHosts returns the total population size (devices then sites), the
// host-index space scans sweep.
func (g *Generator) NumHosts() int { return g.w.Config.NumDevices + g.w.Config.NumSites }

// Remaining returns how many hosts Next has yet to yield.
func (g *Generator) Remaining() int {
	return (g.w.Config.NumDevices - g.nextDevice) + (g.w.Config.NumSites - g.nextSite)
}

// Next materialises up to n hosts in global host order — all devices, then
// all sites — returning nil once the population is exhausted. The caller
// owns the returned hosts; the generator retains nothing, so a drained
// batch is garbage as soon as the caller drops it.
func (g *Generator) Next(n int) []Host {
	if n <= 0 {
		return nil
	}
	cfg := g.w.Config
	out := make([]Host, 0, n)
	for len(out) < n && g.nextDevice < cfg.NumDevices {
		out = append(out, g.nextDeviceHost())
	}
	for len(out) < n && g.nextSite < cfg.NumSites {
		out = append(out, g.nextSiteHost())
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// nextDeviceHost yields one device, reproducing the population loop's draw
// order exactly: profile pick, shared birth, fleet length, then one
// popRNG.Split() per member.
func (g *Generator) nextDeviceHost() *Device {
	cfg := g.w.Config
	if g.fleetLeft == 0 {
		p := g.profPicker.Pick(g.popRNG)
		birth := birthTime(cfg, g.popRNG)
		n := 1
		if p.FleetSize > 1 {
			n = 2 + g.popRNG.Intn(p.FleetSize-1)
			if g.nextDevice+n > cfg.NumDevices {
				n = cfg.NumDevices - g.nextDevice
			}
		}
		g.fleetProfile, g.fleetBirth, g.fleetLeft, g.fleetCert = p, birth, n, nil
	}
	d := g.w.newDevice(g.nextDevice, g.fleetProfile, g.fleetBirth, g.popRNG.Split())
	if g.fleetProfile.FleetSize > 1 {
		if g.fleetCert == nil {
			g.fleetCert = d.cert
		} else {
			// Fleet members serve the leader's certificate.
			d.fleetCert = g.fleetCert
			d.cert = g.fleetCert
		}
	}
	g.nextDevice++
	g.fleetLeft--
	return d
}

func (g *Generator) nextSiteHost() *Site {
	s := g.w.newSite(g.nextSite, birthTime(g.w.Config, g.siteRNG), g.siteRNG.Split())
	g.nextSite++
	return s
}
