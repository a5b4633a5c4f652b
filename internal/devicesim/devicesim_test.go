package devicesim

import (
	"testing"
	"time"

	"securepki/internal/stats"
	"securepki/internal/truststore"
)

// tinyConfig keeps unit tests fast.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.NumDevices = 400
	cfg.NumSites = 150
	return cfg
}

func buildTiny(t *testing.T) *World {
	t.Helper()
	w, err := BuildWorld(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildWorldPopulations(t *testing.T) {
	w := buildTiny(t)
	if len(w.Devices) != 400 {
		t.Errorf("devices = %d", len(w.Devices))
	}
	if len(w.Sites) != 150 {
		t.Errorf("sites = %d", len(w.Sites))
	}
	if len(w.Roots()) == 0 {
		t.Error("no trusted roots")
	}
	if len(w.Hosts()) != 550 {
		t.Errorf("hosts = %d", len(w.Hosts()))
	}
	if w.Internet.NumPrefixes() == 0 {
		t.Error("no routed prefixes")
	}
	if len(w.Transfers) == 0 {
		t.Error("no scheduled prefix transfers")
	}
}

func TestBuildWorldRejectsBadConfig(t *testing.T) {
	if _, err := BuildWorld(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := tinyConfig()
	cfg.Start = time.Time{}
	if _, err := BuildWorld(cfg); err == nil {
		t.Error("missing Start accepted")
	}
}

func TestDeterminism(t *testing.T) {
	w1 := buildTiny(t)
	w2 := buildTiny(t)
	for i := range w1.Devices {
		c1, c2 := w1.Devices[i].CurrentCert(), w2.Devices[i].CurrentCert()
		if c1.Fingerprint() != c2.Fingerprint() {
			t.Fatalf("device %d differs across same-seed builds", i)
		}
	}
	// A different seed must give a different population.
	cfg := tinyConfig()
	cfg.Seed = 999
	w3, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range w1.Devices {
		if w1.Devices[i].CurrentCert().Fingerprint() == w3.Devices[i].CurrentCert().Fingerprint() {
			same++
		}
	}
	if same == len(w1.Devices) {
		t.Error("different seeds produced identical worlds")
	}
}

func TestDevicesPlacedInProfileRegions(t *testing.T) {
	w := buildTiny(t)
	german := map[int]bool{3320: true, 3209: true, 6805: true}
	for _, d := range w.Devices {
		if d.Profile.Region == RegionGerman && len(d.Moves()) == 0 {
			if !german[d.AS().ASN] {
				t.Fatalf("german-region device in AS%d", d.AS().ASN)
			}
		}
	}
}

func TestDeviceCertMatchesProfile(t *testing.T) {
	w := buildTiny(t)
	for _, d := range w.Devices {
		cert := d.CurrentCert()
		p := d.Profile
		switch p.CN {
		case CNEmpty:
			if cert.Subject.CommonName != "" {
				t.Fatalf("%s device has CN %q", p.Name, cert.Subject.CommonName)
			}
		case CNFixed, CNPrivateIP:
			if cert.Subject.CommonName != p.CNText {
				t.Fatalf("%s device has CN %q, want %q", p.Name, cert.Subject.CommonName, p.CNText)
			}
		}
		if p.SAN == SANSharedFixed {
			if len(cert.DNSNames) != 1 || cert.DNSNames[0] != p.SANText {
				// v1 certificates legitimately drop extensions.
				if cert.Version != 1 {
					t.Fatalf("%s device SANs = %v", p.Name, cert.DNSNames)
				}
			}
		}
		if p.Issuer == IssuerVendorCA && cert.Issuer.CommonName != p.IssuerText {
			t.Fatalf("%s device issuer = %q", p.Name, cert.Issuer.CommonName)
		}
	}
}

func TestSharedVendorKeys(t *testing.T) {
	w := buildTiny(t)
	keys := map[string]map[string]bool{}
	for _, d := range w.Devices {
		if d.Profile.Key != KeyVendorShared {
			continue
		}
		m, ok := keys[d.Profile.Name]
		if !ok {
			m = map[string]bool{}
			keys[d.Profile.Name] = m
		}
		m[d.CurrentCert().PublicKeyFingerprint().String()] = true
	}
	for name, m := range keys {
		if len(m) != 1 {
			t.Errorf("profile %s uses %d distinct keys, want 1", name, len(m))
		}
	}
}

func TestStableKeySurvivesReissue(t *testing.T) {
	w := buildTiny(t)
	var dev *Device
	for _, d := range w.Devices {
		if d.Profile.Name == "fritzbox" && !d.Static() {
			dev = d
			break
		}
	}
	if dev == nil {
		t.Skip("no dynamic fritzbox in tiny world")
	}
	before := dev.CurrentCert()
	dev.AdvanceTo(dev.Birth.AddDate(0, 2, 0)) // two months: many reconnects
	after := dev.CurrentCert()
	if before.Fingerprint() == after.Fingerprint() {
		t.Error("fritzbox did not reissue across two months of daily reconnects")
	}
	if before.PublicKeyFingerprint() != after.PublicKeyFingerprint() {
		t.Error("fritzbox key changed across reissues (must be stable)")
	}
	if before.Subject.CommonName != after.Subject.CommonName {
		t.Error("fritzbox CN changed across reissues")
	}
}

func TestFreshKeyChangesOnReissue(t *testing.T) {
	w := buildTiny(t)
	for _, d := range w.Devices {
		if d.Profile.Name != "playbook" {
			continue
		}
		before := d.CurrentCert()
		d.AdvanceTo(d.Birth.AddDate(0, 6, 0))
		after := d.CurrentCert()
		if before.Fingerprint() == after.Fingerprint() {
			continue // may not have reissued yet
		}
		if before.PublicKeyFingerprint() == after.PublicKeyFingerprint() {
			t.Error("playbook key survived a reissue (must be fresh)")
		}
		if before.SerialNumber.Cmp(after.SerialNumber) != 0 {
			t.Error("playbook serial changed (profile pins it)")
		}
		if before.Issuer != after.Issuer {
			t.Error("playbook issuer changed across reissues")
		}
		return
	}
	t.Skip("no playbook device reissued in window")
}

func TestAdvanceToMonotone(t *testing.T) {
	w := buildTiny(t)
	d := w.Devices[0]
	d.AdvanceTo(d.Birth.AddDate(0, 3, 0))
	cert := d.CurrentCert()
	// Going backwards must be a no-op, not a panic or state rewind.
	d.AdvanceTo(d.Birth)
	if d.CurrentCert() != cert {
		t.Error("AdvanceTo backwards changed state")
	}
}

func TestAppearancesRespectLifetime(t *testing.T) {
	w := buildTiny(t)
	r := stats.NewRNG(5)
	for _, d := range w.Devices {
		preBirth := d.Birth.AddDate(0, 0, -10)
		if apps := d.Appearances(preBirth, preBirth.Add(10*time.Hour), r); apps != nil {
			t.Fatal("device appeared before birth")
		}
		postDeath := d.Death.AddDate(0, 0, 10)
		if apps := d.Appearances(postDeath, postDeath.Add(10*time.Hour), r); apps != nil {
			t.Fatal("device appeared after death")
		}
		break
	}
}

func TestMidScanChangeProducesAtMostTwoAppearances(t *testing.T) {
	w := buildTiny(t)
	r := stats.NewRNG(6)
	counts := map[int]int{}
	for _, d := range w.Devices {
		if !d.AliveAt(d.Birth.AddDate(0, 1, 0)) {
			continue
		}
		start := d.Birth.AddDate(0, 1, 0)
		apps := d.Appearances(start, start.Add(10*time.Hour), r)
		counts[len(apps)]++
		if len(apps) > 2 {
			t.Fatalf("device yielded %d appearances in one scan", len(apps))
		}
	}
	if counts[1] == 0 {
		t.Error("no single-appearance devices at all")
	}
}

func TestValidityDistributionShape(t *testing.T) {
	w := buildTiny(t)
	var days []float64
	for _, d := range w.Devices {
		days = append(days, d.CurrentCert().ValidityDays())
	}
	c := stats.NewCDF(days)
	med := c.Median()
	if med < 15*365 || med > 28*365 {
		t.Errorf("invalid validity median = %.0f days, want ~20 years", med)
	}
	if neg := c.At(0); neg < 0.005 || neg > 0.15 {
		t.Errorf("negative-validity fraction = %.3f, want a few percent", neg)
	}
}

func TestSiteCertsAreValid(t *testing.T) {
	w := buildTiny(t)
	store := truststore.NewStore()
	for _, r := range w.Roots() {
		store.AddRoot(r)
	}
	for _, s := range w.Sites {
		store.AddIntermediate(s.CA().Cert)
	}
	for i, s := range w.Sites {
		if got := store.Verify(s.CurrentCert()); got != truststore.Valid {
			t.Fatalf("site %d cert classified %v", i, got)
		}
	}
}

func TestDeviceCertsAreInvalid(t *testing.T) {
	w := buildTiny(t)
	store := truststore.NewStore()
	for _, r := range w.Roots() {
		store.AddRoot(r)
	}
	for _, d := range w.Devices {
		if store.Verify(d.CurrentCert()) == truststore.Valid {
			t.Fatalf("device %s cert classified valid", d.Profile.Name)
		}
	}
}

func TestSiteReissueCycle(t *testing.T) {
	w := buildTiny(t)
	s := w.Sites[0]
	before := s.CurrentCert()
	s.AdvanceTo(s.Birth.AddDate(6, 0, 0))
	after := s.CurrentCert()
	if before.Fingerprint() == after.Fingerprint() {
		t.Error("site never reissued over six years")
	}
	if before.Subject.CommonName != after.Subject.CommonName {
		t.Error("site CN changed across reissue")
	}
}

func TestSiteAppearancesServeChain(t *testing.T) {
	w := buildTiny(t)
	r := stats.NewRNG(7)
	s := w.Sites[0]
	apps := s.Appearances(s.Birth, s.Birth.Add(10*time.Hour), r)
	if len(apps) == 0 {
		t.Fatal("site yielded no appearances")
	}
	for _, app := range apps {
		if len(app.Chain) != 2 {
			t.Fatalf("site serves %d certs, want leaf+intermediate", len(app.Chain))
		}
		if !app.Chain[1].IsCA {
			t.Error("second chain element is not a CA cert")
		}
	}
}

func TestFleetSharesCertificate(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumDevices = 3000 // enough to draw some fleet devices
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleets := map[string]int{}
	for _, d := range w.Devices {
		if d.Profile.Name == "fleet-appliance" {
			fleets[d.CurrentCert().Fingerprint().String()]++
		}
	}
	if len(fleets) == 0 {
		t.Skip("no fleet devices drawn")
	}
	shared := 0
	for _, n := range fleets {
		if n > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no fleet certificate is shared by >1 device")
	}
}

func TestProfileWeightsCoverTable4Classes(t *testing.T) {
	classes := map[string]bool{}
	for _, p := range DefaultProfiles() {
		classes[p.DeviceType] = true
	}
	for _, want := range []string{"Home router/cable modem", "Unknown", "VPN", "Remote storage", "Remote administration", "Firewall", "IP camera", "Other"} {
		if !classes[want] {
			t.Errorf("no profile for device class %q", want)
		}
	}
}

func TestEpochClockDevicesBackdateNotBefore(t *testing.T) {
	w := buildTiny(t)
	found := false
	for _, d := range w.Devices {
		if d.Profile.Name == "ipcam" && d.clock == ClockEpoch {
			nb := d.CurrentCert().NotBefore
			if gap := d.Birth.Sub(nb).Hours() / 24; gap < 1000 {
				t.Errorf("epoch-clock ipcam NotBefore only %.0f days before birth", gap)
			}
			found = true
		}
	}
	if !found {
		t.Skip("no epoch-clock ipcam drawn")
	}
}
