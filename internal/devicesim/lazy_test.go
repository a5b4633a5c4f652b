package devicesim

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"securepki/internal/x509lite"
)

// eagerDigest is unobservedDigest as computed when every reissue signed its
// certificate on the spot; deferring the signing must not move a byte.
const eagerDigest = "56f3dc4292ec761624708a396f71a5be48973fe9427ecaf2dcd46a930b674331"

// unobservedDigest hashes what a world's hosts yield without any scan:
// every device's certificate and private key and every site's certificate,
// read at birth from one world and, from a second, after a year of
// reissues, for a clean and a 30%-mutated population.
func unobservedDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, frac := range []float64{0, 0.3} {
		cfg := smallCfg()
		cfg.MutateFrac = frac
		for _, advance := range []bool{false, true} {
			w, err := BuildWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if advance {
				later := cfg.Start.AddDate(1, 0, 0)
				for _, d := range w.Devices {
					d.AdvanceTo(later)
				}
				for _, s := range w.Sites {
					s.AdvanceTo(later)
				}
			}
			for _, d := range w.Devices {
				h.Write(d.CurrentCert().Raw)
				h.Write(w.ExtractDeviceKey(d))
			}
			for _, s := range w.Sites {
				h.Write(s.CurrentCert().Raw)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestUnobservedHostsMatchEagerGeneration: a host no scan observes still
// gives, through CurrentCert and ExtractDeviceKey, exactly the certificate
// and key eager generation produced.
func TestUnobservedHostsMatchEagerGeneration(t *testing.T) {
	if got := unobservedDigest(t); got != eagerDigest {
		t.Fatalf("unobserved hosts digest %s, eager generation gave %s", got, eagerDigest)
	}
}

// TestFleetMaterializesOnce: a fleet's members share their leader's pending
// certificate, so reading it from many goroutines at once signs it once and
// hands every member the same pointer. Meant for -race -count=10.
func TestFleetMaterializesOnce(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumDevices = 3000 // enough to draw a fleet
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fleet []*Device
	for _, d := range w.Devices {
		if d.fleetCert != nil {
			for _, m := range w.Devices {
				if m.cert == d.fleetCert {
					fleet = append(fleet, m) // the leader and every member
				}
			}
			break
		}
	}
	if len(fleet) < 3 {
		t.Fatalf("first fleet has %d devices, want a leader and at least two members", len(fleet))
	}
	signs := w.Signs()
	got := make([]*x509lite.Certificate, len(fleet)*4)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = fleet[i%len(fleet)].CurrentCert()
		}(i)
	}
	close(start)
	wg.Wait()
	if n := w.Signs() - signs; n != 1 {
		t.Fatalf("%d devices of one fleet ran %d signs, want 1", len(fleet), n)
	}
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("reader %d got a different certificate pointer than reader 0", i)
		}
	}
}
