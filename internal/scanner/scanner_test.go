package scanner

import (
	"testing"
	"time"

	"securepki/internal/devicesim"
	"securepki/internal/netsim"
	"securepki/internal/scanstore"
	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

func tinyWorld(t *testing.T) *devicesim.World {
	t.Helper()
	cfg := devicesim.DefaultConfig()
	cfg.NumDevices = 500
	cfg.NumSites = 200
	w, err := devicesim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func tinyCampaignConfig() Config {
	cfg := DefaultConfig()
	cfg.UMichScans = 10
	cfg.Rapid7Scans = 5
	return cfg
}

func runTiny(t *testing.T) (*devicesim.World, *Campaign, *scanstore.Corpus, *Truth) {
	t.Helper()
	w := tinyWorld(t)
	camp, err := New(w, tinyCampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	corpus, truth, err := camp.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return w, camp, corpus, truth
}

func TestCampaignScheduleChronological(t *testing.T) {
	w := tinyWorld(t)
	camp, err := New(w, tinyCampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := camp.Schedule()
	if len(sched) < 15 {
		t.Fatalf("schedule has %d scans", len(sched))
	}
	for i := 1; i < len(sched); i++ {
		if sched[i].Time.Before(sched[i-1].Time) {
			t.Fatal("schedule not chronological")
		}
	}
}

func TestCoScanDaysForced(t *testing.T) {
	w := tinyWorld(t)
	cfg := tinyCampaignConfig()
	cfg.UMichScans = 40
	cfg.Rapid7Scans = 10
	cfg.CoScanDays = 3
	camp, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byDay := map[time.Time]map[scanstore.Operator]bool{}
	for _, s := range camp.Schedule() {
		day := s.Time.Truncate(24 * time.Hour)
		if byDay[day] == nil {
			byDay[day] = map[scanstore.Operator]bool{}
		}
		byDay[day][s.Operator] = true
	}
	co := 0
	for _, ops := range byDay {
		if ops[scanstore.UMich] && ops[scanstore.Rapid7] {
			co++
		}
	}
	if co < 3 {
		t.Errorf("co-scan days = %d, want >= 3", co)
	}
}

func TestRunProducesObservations(t *testing.T) {
	_, _, corpus, _ := runTiny(t)
	// 10 UMich + 5 Rapid7, plus up to CoScanDays forced UMich co-scans.
	if corpus.NumScans() < 15 || corpus.NumScans() > 15+4 {
		t.Errorf("scans = %d", corpus.NumScans())
	}
	if corpus.NumCerts() == 0 {
		t.Fatal("no certificates collected")
	}
	nonEmpty := 0
	for _, s := range corpus.Scans() {
		if len(s.Obs) > 0 {
			nonEmpty++
		}
		// Each scan keeps an exact-size copy, not a list grown by append.
		if cap(s.Obs) != len(s.Obs) {
			t.Errorf("scan %d holds %d observations in a list of capacity %d", s.ID, len(s.Obs), cap(s.Obs))
		}
	}
	if nonEmpty != corpus.NumScans() {
		t.Errorf("only %d/%d scans observed anything", nonEmpty, corpus.NumScans())
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	// Same world + seed must give the identical corpus whether scanned with
	// one worker or many.
	run := func(workers int) *scanstore.Corpus {
		cfg := devicesim.DefaultConfig()
		cfg.NumDevices = 300
		cfg.NumSites = 100
		w, err := devicesim.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		camp, err := New(w, tinyCampaignConfig())
		if err != nil {
			t.Fatal(err)
		}
		corpus, _, err := camp.Run(workers)
		if err != nil {
			t.Fatal(err)
		}
		return corpus
	}
	c1 := run(1)
	c8 := run(8)
	if c1.NumCerts() != c8.NumCerts() {
		t.Fatalf("cert counts differ: %d vs %d", c1.NumCerts(), c8.NumCerts())
	}
	for i := 0; i < c1.NumScans(); i++ {
		o1, o8 := c1.Scan(scanstore.ScanID(i)).Obs, c8.Scan(scanstore.ScanID(i)).Obs
		if len(o1) != len(o8) {
			t.Fatalf("scan %d: %d vs %d observations", i, len(o1), len(o8))
		}
		for j := range o1 {
			if o1[j] != o8[j] {
				t.Fatalf("scan %d obs %d differ", i, j)
			}
		}
	}
}

func TestBlacklistsExcludePrefixes(t *testing.T) {
	w, camp, corpus, _ := runTiny(t)
	// Every observation in an operator's scan must avoid that operator's
	// blacklist.
	for _, s := range corpus.Scans() {
		for _, o := range s.Obs {
			p, ok := w.Internet.PrefixOf(o.IP)
			if !ok {
				t.Fatalf("observation at unrouted IP %s", o.IP)
			}
			if camp.Blacklisted(s.Operator, p) {
				t.Fatalf("operator %v observed blacklisted prefix %s", s.Operator, p)
			}
		}
	}
}

func TestRapid7SeesFewerHosts(t *testing.T) {
	// Rapid7's blacklist is bigger, so on comparable dates its scans are
	// smaller (§4.1's ~20% discrepancy).
	w := tinyWorld(t)
	cfg := tinyCampaignConfig()
	cfg.UMichScans = 30
	cfg.Rapid7Scans = 8
	cfg.CoScanDays = 4
	camp, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, _, err := camp.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	byDay := map[time.Time]map[scanstore.Operator]int{}
	for _, s := range corpus.Scans() {
		day := s.Day()
		if byDay[day] == nil {
			byDay[day] = map[scanstore.Operator]int{}
		}
		ips := map[uint32]bool{}
		for _, o := range s.Obs {
			ips[uint32(o.IP)] = true
		}
		byDay[day][s.Operator] = len(ips)
	}
	compared := 0
	r7Smaller := 0
	for _, ops := range byDay {
		um, okU := ops[scanstore.UMich]
		r7, okR := ops[scanstore.Rapid7]
		if okU && okR {
			compared++
			if r7 < um {
				r7Smaller++
			}
		}
	}
	if compared == 0 {
		t.Fatal("no co-scan days to compare")
	}
	if r7Smaller*2 < compared {
		t.Errorf("Rapid7 smaller on only %d/%d co-scan days", r7Smaller, compared)
	}
}

func TestTruthTracksHosts(t *testing.T) {
	_, _, corpus, truth := runTiny(t)
	// Every interned certificate was observed, so Truth holds a host entry
	// for it. Site intermediates are served by many hosts; device certs
	// mostly one.
	idx := corpus.BuildIndexWorkers(0)
	multi, single := 0, 0
	for _, rec := range corpus.Certs() {
		if len(idx.Sightings(rec.ID)) == 0 {
			t.Fatalf("cert %d interned without a sighting", rec.ID)
		}
		if _, ok := truth.SoleHost(rec.ID); ok {
			single++
		} else {
			multi++
		}
	}
	if single == 0 {
		t.Fatal("truth empty: no certificate has a sole host")
	}
	if multi == 0 {
		t.Errorf("host-diversity degenerate: single=%d multi=%d", single, multi)
	}
	if _, ok := truth.SoleHost(scanstore.CertID(corpus.NumCerts())); ok {
		t.Error("a certificate the scans never returned has a sole host")
	}
}

func TestSoleHost(t *testing.T) {
	_, _, corpus, truth := runTiny(t)
	found := false
	for _, rec := range corpus.Certs() {
		if h, ok := truth.SoleHost(rec.ID); ok {
			if h < 0 {
				t.Fatalf("negative host index %d", h)
			}
			found = true
			break
		}
	}
	if !found {
		t.Error("no certificate has a sole host")
	}
	var none *Truth
	if _, ok := none.SoleHost(0); ok {
		t.Error("a nil Truth knows a host")
	}
}

// Truth keeps one host per certificate and forgets it at the second, so
// SoleHost must agree with the full host set a naive sink builds from its
// own sweep of the same world, for every certificate, at SmallConfig's
// sizing and any worker count.
func TestTruthMatchesNaiveHostSets(t *testing.T) {
	build := func() (*devicesim.World, *Campaign) {
		wcfg := devicesim.DefaultConfig()
		wcfg.NumDevices, wcfg.NumSites = 1500, 650
		w, err := devicesim.BuildWorld(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.UMichScans, cfg.Rapid7Scans = 16, 8
		camp, err := New(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w, camp
	}
	for _, workers := range []int{1, 4} {
		// Hosts advance as they are scanned, so each sweep gets a fresh world.
		w, camp := build()
		hostSets := make(map[x509lite.Fingerprint]map[int]bool)
		camp.sweep(w.Hosts(), 0, workers, camp.lossRNGs(), func(_, host int, cert *x509lite.Certificate, _ netsim.IP) {
			fp := cert.Fingerprint()
			if hostSets[fp] == nil {
				hostSets[fp] = make(map[int]bool)
			}
			hostSets[fp][host] = true
		})
		_, camp = build()
		corpus, truth, err := camp.Run(workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(hostSets) != corpus.NumCerts() {
			t.Fatalf("workers=%d: naive sweep saw %d certificates, Run interned %d", workers, len(hostSets), corpus.NumCerts())
		}
		sole := 0
		for _, rec := range corpus.Certs() {
			hosts := hostSets[rec.Cert.Fingerprint()]
			wantHost, wantOK := -1, len(hosts) == 1
			for h := range hosts {
				wantHost = h
			}
			gotHost, gotOK := truth.SoleHost(rec.ID)
			if gotOK != wantOK || (wantOK && gotHost != wantHost) {
				t.Fatalf("workers=%d cert %d: SoleHost = %d, %v; naive host set %v", workers, rec.ID, gotHost, gotOK, hosts)
			}
			if gotOK {
				sole++
			}
		}
		if sole == 0 || sole == corpus.NumCerts() {
			t.Fatalf("workers=%d: %d of %d certificates have a sole host; want some but not all", workers, sole, corpus.NumCerts())
		}
	}
}

func TestUMichScheduleIncludesDailyRun(t *testing.T) {
	r := stats.NewRNG(3)
	sched := umichSchedule(time.Date(2012, 6, 10, 0, 0, 0, 0, time.UTC), time.Date(2014, 1, 29, 0, 0, 0, 0, time.UTC), 30, r)
	if len(sched) != 30 {
		t.Fatalf("schedule len = %d", len(sched))
	}
	daily := 0
	for i := 1; i < len(sched); i++ {
		gap := sched[i].Sub(sched[i-1])
		if gap <= 0 {
			t.Fatal("non-increasing schedule")
		}
		if gap == 24*time.Hour {
			daily++
		}
	}
	if daily < 3 {
		t.Errorf("daily-run stretch too short: %d one-day gaps", daily)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	w := tinyWorld(t)
	cfg := tinyCampaignConfig()
	cfg.UMichScans = 0
	cfg.Rapid7Scans = 0
	if _, err := New(w, cfg); err == nil {
		t.Error("empty campaign accepted")
	}
	cfg = tinyCampaignConfig()
	cfg.ScanWindow = 0
	if _, err := New(w, cfg); err == nil {
		t.Error("zero scan window accepted")
	}
}
