package tracking

import (
	"sync"
	"testing"
	"time"

	"securepki/internal/analysis"
	"securepki/internal/devicesim"
	"securepki/internal/linking"
	"securepki/internal/scanner"
	"securepki/internal/truststore"
)

var (
	fixOnce sync.Once
	fix     struct {
		tracker *Tracker
		world   *devicesim.World
		err     error
	}
)

func tracker(t *testing.T) (*Tracker, *devicesim.World) {
	t.Helper()
	fixOnce.Do(func() {
		wcfg := devicesim.DefaultConfig()
		wcfg.NumDevices = 2500
		wcfg.NumSites = 900
		world, err := devicesim.BuildWorld(wcfg)
		if err != nil {
			fix.err = err
			return
		}
		scfg := scanner.DefaultConfig()
		scfg.UMichScans = 22
		scfg.Rapid7Scans = 12
		camp, err := scanner.New(world, scfg)
		if err != nil {
			fix.err = err
			return
		}
		corpus, _, err := camp.Run(0)
		if err != nil {
			fix.err = err
			return
		}
		store := truststore.NewStore()
		for _, r := range world.Roots() {
			store.AddRoot(r)
		}
		corpus.ValidateWorkers(store, 0)
		ds := analysis.NewDatasetWorkers(corpus, world.Internet, 0)
		linker := linking.NewLinker(ds, linking.DefaultConfig(), 0, nil)
		res := linker.Link()
		fix.tracker = NewTracker(ds, res, linker)
		fix.world = world
	})
	if fix.err != nil {
		t.Fatal(fix.err)
	}
	return fix.tracker, fix.world
}

const year = 365 * 24 * time.Hour

func TestEntitiesCoverAllInvalidCerts(t *testing.T) {
	tr, _ := tracker(t)
	if len(tr.Entities()) == 0 {
		t.Fatal("no entities")
	}
	linked, single := 0, 0
	for _, e := range tr.Entities() {
		if len(e.Certs) == 0 || len(e.Sightings) == 0 {
			t.Fatal("entity without certs or sightings")
		}
		if e.Linked {
			linked++
			if len(e.Certs) < 2 {
				t.Fatal("linked entity with a single cert")
			}
		} else {
			single++
		}
		for i := 1; i < len(e.Sightings); i++ {
			if e.Sightings[i].Scan < e.Sightings[i-1].Scan {
				t.Fatal("entity sightings out of order")
			}
		}
	}
	if linked == 0 || single == 0 {
		t.Errorf("degenerate entity mix: %d linked, %d single", linked, single)
	}
}

func TestTrackableGain(t *testing.T) {
	tr, _ := tracker(t)
	rep := tr.Trackable(year)
	if rep.Baseline == 0 {
		t.Fatal("no baseline-trackable devices")
	}
	if rep.WithLinking <= rep.Baseline {
		t.Errorf("linking added no trackable devices: %d -> %d", rep.Baseline, rep.WithLinking)
	}
	// Paper: +17.2%. The scaled population is reissue-heavier than the real
	// Internet, so accept a generous band (direction and significance are
	// the reproduction criteria; EXPERIMENTS.md records the exact value).
	if g := rep.Gain(); g < 0.02 || g > 4.0 {
		t.Errorf("trackable gain = %.3f", g)
	}
}

func TestMovementReport(t *testing.T) {
	tr, _ := tracker(t)
	rep := tr.Movement(year, 10)
	if rep.TrackedDevices == 0 {
		t.Fatal("no tracked devices")
	}
	if rep.DevicesChanging == 0 {
		t.Fatal("no devices changed AS")
	}
	if rep.TotalTransitions < rep.DevicesChanging {
		t.Errorf("transitions (%d) < changing devices (%d)", rep.TotalTransitions, rep.DevicesChanging)
	}
	// Paper: 69.7% of movers change exactly once — i.e. single moves
	// dominate. (The paper's multi-movers are mobile tablets; our scaled
	// corpus tracks fewer of those, pushing the fraction higher.)
	if rep.ChangedOnceFrac < 0.3 {
		t.Errorf("changed-once fraction = %.3f", rep.ChangedOnceFrac)
	}
	if rep.CountryMoves == 0 {
		t.Error("no cross-country movements observed")
	}
	if rep.CountryMoves > rep.DevicesChanging {
		t.Error("country moves exceed AS-changing devices")
	}
}

func TestBulkTransfersDetected(t *testing.T) {
	tr, w := tracker(t)
	// The world schedules Verizon→MCI and AT&T→MCI block transfers; with a
	// low threshold the detector must surface movements into AS701.
	rep := tr.Movement(0, 5)
	if len(w.Transfers) == 0 {
		t.Skip("world scheduled no transfers")
	}
	found := false
	for _, b := range rep.BulkTransfers {
		if b.ToASN == 701 {
			found = true
			if b.Devices < 5 {
				t.Errorf("bulk transfer below threshold: %+v", b)
			}
		}
	}
	if !found {
		t.Errorf("no bulk transfer into AS701 detected; got %v", rep.BulkTransfers)
	}
}

func TestReassignmentReport(t *testing.T) {
	tr, _ := tracker(t)
	rep := tr.Reassignment(year, 10)
	if len(rep.PerAS) < 5 {
		t.Fatalf("only %d ASes with >=10 tracked devices", len(rep.PerAS))
	}
	byASN := map[int]ASReassignment{}
	for _, r := range rep.PerAS {
		byASN[r.ASN] = r
		if r.StaticFrac < 0 || r.StaticFrac > 1 {
			t.Fatalf("static fraction out of range: %+v", r)
		}
	}
	// Deutsche Telekom renumbers daily: its tracked devices must be far
	// less static than Comcast's (paper: DT 76.3% change every scan;
	// Comcast 90% static).
	dt, okDT := byASN[3320]
	comcast, okC := byASN[7922]
	if okDT && okC {
		if dt.StaticFrac >= comcast.StaticFrac {
			t.Errorf("DT static %.3f >= Comcast static %.3f", dt.StaticFrac, comcast.StaticFrac)
		}
		if dt.PerScanChurnFrac < 0.5 {
			t.Errorf("DT per-scan churn = %.3f, want high", dt.PerScanChurnFrac)
		}
	}
	// Figure 11's shape: a majority of ASes are mostly static.
	if rep.MostlyStaticASes*2 < len(rep.PerAS) {
		t.Errorf("mostly-static ASes = %d of %d, want majority", rep.MostlyStaticASes, len(rep.PerAS))
	}
	if rep.HighlyDynamicASes == 0 {
		t.Error("no highly dynamic ASes found (DT & friends expected)")
	}
	if rep.StaticFracCDF.Len() != len(rep.PerAS) {
		t.Error("CDF size mismatch")
	}
}

func TestTrackableMinSpanMonotone(t *testing.T) {
	tr, _ := tracker(t)
	short := tr.Trackable(30 * 24 * time.Hour)
	long := tr.Trackable(year)
	if long.WithLinking > short.WithLinking {
		t.Errorf("raising the span threshold increased trackables: %d -> %d",
			short.WithLinking, long.WithLinking)
	}
}
