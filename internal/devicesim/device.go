package devicesim

import (
	"crypto/ed25519"
	"fmt"
	"math/big"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// Appearance is one (address, served chain) a host presents during a scan
// window. Devices usually yield one appearance; a mid-scan IP change can
// yield zero, one or two (§6.2's scan-duplicate phenomenon).
//
// The leaf comes back still pending: Chain[0] is nil until Materialize signs
// it (once per certificate, however many appearances share it), so a
// sighting the scan then drops costs no signature.
type Appearance struct {
	IP    netsim.IP
	Chain []*x509lite.Certificate // leaf first
	leaf  *pendingCert
}

// Materialize fills in the chain's leaf, signing it on first use.
func (a Appearance) Materialize() { a.Chain[0] = a.leaf.get() }

// ASMove records a device changing autonomous systems — the §7.3 ground
// truth the tracking evaluation compares against.
type ASMove struct {
	At   time.Time
	From int
	To   int
}

// Device is one simulated end-user device: a behaviour profile plus mutable
// state (address, key, current certificate) that evolves along the dataset
// timeline. Devices are advanced strictly forward in time by the scanner.
type Device struct {
	ID      int
	Profile *Profile

	world *World
	rng   *stats.RNG

	Birth time.Time
	Death time.Time

	as     *netsim.AS
	static bool
	ip     netsim.IP

	neverReissue bool
	clock        ClockMode
	epoch        time.Time // firmware epoch for ClockEpoch devices
	mac          string
	cnUnique     string
	sanUnique    string
	serial       *big.Int // fixed serial for StableSerial profiles
	crlBase      string
	fleetCert    *pendingCert // shared cert for fleet members; nil otherwise

	key  *lazyKey     // current key, derived on first use
	cert *pendingCert // current certificate, signed on first use

	now          time.Time
	nextIPChange time.Time
	nextReissue  time.Time
	nextASMove   time.Time

	moves []ASMove
}

// farFuture stands for "never" in event scheduling.
var farFuture = time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)

func (w *World) newDevice(id int, p *Profile, birth time.Time, r *stats.RNG) *Device {
	d := &Device{
		ID:      id,
		Profile: p,
		world:   w,
		rng:     r,
		Birth:   birth,
		now:     birth,
	}
	// Lifespan: heavy-tailed; many devices outlive the whole window.
	d.Death = birth.Add(time.Duration(r.Exponential(1600*24)) * time.Hour)

	d.as = w.pickers[p.Region].Pick(r)
	d.static = r.Bool(d.as.Policy.StaticFraction)
	d.ip = d.as.RandomIP(r)
	d.scheduleLease()

	d.neverReissue = r.Bool(p.NoReissueProb)
	if p.ReissueMeanDays > 0 && !d.neverReissue {
		d.nextReissue = birth.Add(time.Duration(r.Exponential(p.ReissueMeanDays*24)) * time.Hour)
	} else {
		d.nextReissue = farFuture
	}
	if p.MoveASProbPerYear > 0 {
		d.nextASMove = birth.Add(time.Duration(r.Exponential(365.25*24/p.MoveASProbPerYear)) * time.Hour)
	} else {
		d.nextASMove = farFuture
	}

	switch {
	case r.Bool(p.ClockEpochProb):
		d.clock = ClockEpoch
	case r.Bool(p.ClockAheadProb / (1 - p.ClockEpochProb)):
		d.clock = ClockAhead
	default:
		d.clock = ClockAccurate
	}
	d.epoch = w.profileEpochs[p.Name]

	d.mac = fmt.Sprintf("%02X:%02X:%02X:%02X:%02X:%02X",
		r.Intn(256), r.Intn(256), r.Intn(256), r.Intn(256), r.Intn(256), r.Intn(256))
	switch p.CN {
	case CNDeviceSerial:
		d.cnUnique = fmt.Sprintf("%s %06d", p.CNText, 100000+id)
	case CNDynDNS:
		d.cnUnique = fmt.Sprintf("%08x.%s", r.Uint32(), p.CNText)
	}
	if p.SAN == SANUnique {
		d.sanUnique = fmt.Sprintf("%08x.%s", r.Uint32(), p.SANText)
	}
	if p.StableSerial {
		d.serial = new(big.Int).SetUint64(r.Uint64() >> 1)
	}
	if p.IncludeRevocationInfo {
		d.crlBase = fmt.Sprintf("http://pki-%06d.%s.example", id, p.Name)
	}

	if p.Key == KeyVendorShared {
		d.key = w.sharedDeviceKey(p)
	} else {
		d.key = drawKey(r)
	}
	d.reissue(birth)
	return d
}

func (d *Device) scheduleLease() {
	if d.static || d.as.Policy.MeanLeaseDays <= 0 {
		d.nextIPChange = farFuture
		return
	}
	d.nextIPChange = d.now.Add(time.Duration(d.rng.Exponential(d.as.Policy.MeanLeaseDays*24)) * time.Hour)
}

// AliveAt reports whether the device exists at t.
func (d *Device) AliveAt(t time.Time) bool {
	return !t.Before(d.Birth) && t.Before(d.Death)
}

// AS returns the device's current AS.
func (d *Device) AS() *netsim.AS { return d.as }

// Static reports whether the device holds a static address.
func (d *Device) Static() bool { return d.static }

// Moves returns the device's AS-change history so far.
func (d *Device) Moves() []ASMove { return d.moves }

// CurrentCert returns the certificate the device is serving now, signing
// it if nothing has needed it yet.
func (d *Device) CurrentCert() *x509lite.Certificate { return d.cert.get() }

// AdvanceTo applies all scheduled events (address changes, certificate
// reissues, AS moves) strictly before t. Time never moves backwards.
//
// Certificate regeneration is coalesced: when several reissue-triggering
// events fall inside the window, only the final one is observable at t, so
// only that one actually builds a certificate. This keeps daily-reissuing
// devices (FRITZ!Box) cheap to advance across multi-week scan gaps without
// changing anything a scan can see.
func (d *Device) AdvanceTo(t time.Time) {
	if t.Before(d.now) {
		return
	}
	var pendingReissue time.Time
	for {
		next := d.nextIPChange
		kind := 0
		if d.nextReissue.Before(next) {
			next, kind = d.nextReissue, 1
		}
		if d.nextASMove.Before(next) {
			next, kind = d.nextASMove, 2
		}
		if !next.Before(t) {
			break
		}
		switch kind {
		case 0:
			d.now = next
			d.ip = d.as.RandomIP(d.rng)
			d.scheduleLease()
			if d.Profile.ReissueOnIPChange && !d.neverReissue {
				pendingReissue = next
			}
		case 1:
			d.now = next
			pendingReissue = next
			d.nextReissue = next.Add(time.Duration(d.rng.Exponential(d.Profile.ReissueMeanDays*24)) * time.Hour)
		case 2:
			d.applyASMove(next)
			if d.Profile.ReissueOnIPChange && !d.neverReissue {
				pendingReissue = next
			}
		}
	}
	if !pendingReissue.IsZero() {
		d.reissue(pendingReissue)
	}
	d.now = t
}

// applyIPChange performs an immediate address change with its reissue; used
// for the single mid-scan change whose before/after certificates must both
// exist.
func (d *Device) applyIPChange(at time.Time) {
	d.now = at
	d.ip = d.as.RandomIP(d.rng)
	d.scheduleLease()
	if d.Profile.ReissueOnIPChange && !d.neverReissue {
		d.reissue(at)
	}
}

func (d *Device) applyASMove(at time.Time) {
	d.now = at
	from := d.as.ASN
	// Draw a destination different from the current AS; give up after a few
	// tries if the region has a single AS.
	for i := 0; i < 8; i++ {
		cand := d.world.pickers[d.Profile.Region].Pick(d.rng)
		if cand.ASN != from {
			d.as = cand
			break
		}
	}
	if d.as.ASN != from {
		d.moves = append(d.moves, ASMove{At: at, From: from, To: d.as.ASN})
	}
	d.static = d.rng.Bool(d.as.Policy.StaticFraction)
	d.ip = d.as.RandomIP(d.rng)
	d.scheduleLease()
	d.nextASMove = at.Add(time.Duration(d.rng.Exponential(365.25*24/d.Profile.MoveASProbPerYear)) * time.Hour)
}

// reissue regenerates the device's certificate as of time at. It makes
// every draw now; the signing waits until the certificate is first needed.
func (d *Device) reissue(at time.Time) {
	p := d.Profile
	if d.fleetCert != nil {
		d.cert = d.fleetCert
		return
	}
	if p.Key == KeyFresh {
		d.key = drawKey(d.rng)
	}

	var notBefore time.Time
	switch d.clock {
	case ClockEpoch:
		// The clock restarts at the firmware epoch on boot; by generation
		// time the device has accumulated some uptime, so NotBefore lands
		// near — not exactly on — the model's epoch date.
		uptime := time.Duration(d.rng.Float64() * 30 * 24 * float64(time.Hour))
		notBefore = d.epoch.Add(uptime).Truncate(time.Minute)
	case ClockAhead:
		notBefore = at.AddDate(0, 0, 200+d.rng.Intn(2000)).Truncate(time.Hour)
	default:
		// Devices stamp the reissue time at minute granularity — the
		// same-timestamp collision rate this produces at corpus scale
		// mirrors what the paper saw at second granularity over 80M
		// certificates (NotBefore both highly non-unique, Table 5, and a
		// prolific-but-unreliable linking field, Table 6).
		notBefore = at.Truncate(time.Minute)
	}

	var notAfter time.Time
	if d.rng.Bool(p.NegativeValidityProb) {
		notAfter = notBefore.AddDate(0, 0, -(1 + d.rng.Intn(400)))
	} else {
		days := pickValidity(p.Validity, d.rng)
		notAfter = notBefore.AddDate(0, 0, days)
	}

	serial := d.serial
	if serial == nil {
		serial = new(big.Int).SetUint64(d.rng.Uint64() >> 1)
	}

	subject := d.subjectName()
	tmpl := &x509lite.Template{
		Version:          3,
		SerialNumber:     serial,
		Subject:          subject,
		NotBefore:        notBefore,
		NotAfter:         notAfter,
		CorruptSignature: d.rng.Bool(p.CorruptSigProb),
	}
	switch {
	case d.rng.Bool(p.V1Prob):
		tmpl.Version = 1
	case d.rng.Bool(p.BogusVerProb / (1 - p.V1Prob)):
		tmpl.Version = []int{2, 4, 13}[d.rng.Intn(3)]
	}

	switch p.SAN {
	case SANSharedFixed:
		tmpl.DNSNames = []string{p.SANText}
	case SANUnique:
		// A stable per-device list: the model's shared base name plus the
		// device's own hostname (FRITZ!Box-with-MyFritz behaviour).
		tmpl.DNSNames = []string{p.SANText, d.sanUnique}
	}
	if p.IncludeRevocationInfo {
		tmpl.CRLDistributionPoints = []string{d.crlBase + "/ca.crl"}
		tmpl.IssuingCertificateURL = []string{d.crlBase + "/ca.der"}
		tmpl.OCSPServer = []string{d.crlBase + "/ocsp"}
		tmpl.PolicyOIDs = [][]int{{1, 3, 6, 1, 4, 1, 99999, d.ID}}
	}

	var signer ed25519.PrivateKey // nil: the device key signs
	switch p.Issuer {
	case IssuerSelf:
		tmpl.Issuer = subject
	case IssuerSelfNamed:
		tmpl.Issuer = x509lite.Name{CommonName: p.IssuerText}
	case IssuerVendorCA:
		tmpl.Issuer = x509lite.Name{CommonName: p.IssuerText}
		signer = d.world.vendorCAKey(p)
		// Vendor-CA-signed certs carry the vendor's key ID, so the §5.3
		// parent-key analysis can group them.
		vendorCert := d.world.vendorCerts[p.Name]
		fp := vendorCert.PublicKeyFingerprint()
		tmpl.AuthorityKeyID = fp[:8]
	case IssuerPerDevice:
		tmpl.Issuer = x509lite.Name{CommonName: fmt.Sprintf("%s: %s", p.IssuerText, d.mac)}
		tmpl.AuthorityKeyID = []byte(d.mac)
	}

	d.cert = &pendingCert{w: d.world, tmpl: tmpl, key: d.key, signer: signer, device: d.ID}
}

func (d *Device) subjectName() x509lite.Name {
	p := d.Profile
	switch p.CN {
	case CNEmpty:
		return x509lite.Name{}
	case CNDeviceSerial, CNDynDNS:
		return x509lite.Name{CommonName: d.cnUnique}
	case CNPublicIP:
		return x509lite.Name{CommonName: d.ip.String()}
	case CNRandom:
		return x509lite.Name{CommonName: fmt.Sprintf("host-%08x%08x", d.rng.Uint32(), d.rng.Uint32())}
	case CNPrivateIP, CNFixed:
		return x509lite.Name{CommonName: p.CNText}
	default:
		return x509lite.Name{CommonName: p.CNText}
	}
}

func pickValidity(choices []ValidityChoice, r *stats.RNG) int {
	var total float64
	for _, c := range choices {
		total += c.Weight
	}
	x := r.Float64() * total
	for _, c := range choices {
		x -= c.Weight
		if x < 0 {
			return c.Days
		}
	}
	return choices[len(choices)-1].Days
}

// pendingLeaf is a device's appearance at ip serving the one certificate
// leaf, not yet signed.
func pendingLeaf(ip netsim.IP, leaf *pendingCert) Appearance {
	return Appearance{IP: ip, Chain: make([]*x509lite.Certificate, 1), leaf: leaf}
}

// Appearances simulates how a ZMap-style scan over [start, end) observes the
// device: the scanner probes each address at an independent uniform time in
// the window, so a device whose address changes mid-scan can be seen at both
// addresses, one, or neither.
func (d *Device) Appearances(start, end time.Time, scanRNG *stats.RNG) []Appearance {
	if !d.AliveAt(start) {
		if !d.AliveAt(end) {
			// Also advance dead/unborn devices so state stays monotone.
			if start.After(d.now) && d.AliveAt(d.now) {
				d.AdvanceTo(start)
			}
			return nil
		}
	}
	d.AdvanceTo(start)
	var apps []Appearance
	if d.nextIPChange.Before(end) {
		tc := d.nextIPChange
		oldIP, oldCert := d.ip, d.cert
		d.applyIPChange(tc)
		u1 := randTimeIn(scanRNG, start, end)
		u2 := randTimeIn(scanRNG, start, end)
		if u1.Before(tc) {
			apps = append(apps, pendingLeaf(oldIP, oldCert))
		}
		if u2.After(tc) {
			apps = append(apps, pendingLeaf(d.ip, d.cert))
		}
	} else {
		apps = append(apps, pendingLeaf(d.ip, d.cert))
	}
	d.AdvanceTo(end)
	return apps
}

func randTimeIn(r *stats.RNG, start, end time.Time) time.Time {
	span := end.Sub(start)
	return start.Add(time.Duration(r.Int63n(int64(span))))
}
