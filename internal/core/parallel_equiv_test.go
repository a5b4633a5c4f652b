package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"securepki/internal/parallel"
)

// equivConfig shrinks the world so two full pipeline runs stay fast; the
// distributions do not matter here, only that serial and parallel agree.
func equivConfig() Config {
	cfg := SmallConfig()
	cfg.World.NumDevices = 600
	cfg.World.NumSites = 260
	cfg.Scan.UMichScans = 10
	cfg.Scan.Rapid7Scans = 5
	return cfg
}

// The pipeline's golden determinism contract: a run with Workers=1 and a run
// with Workers=4 (forced past GOMAXPROCS even on a single-core machine) must
// agree on every artefact — validation counts, per-certificate statuses, the
// sighting index, the linking result, and the byte-exact JSON summary.
func TestPipelineSerialParallelEquivalence(t *testing.T) {
	serialCfg := equivConfig()
	serialCfg.Workers = 1
	ps, err := Run(serialCfg)
	if err != nil {
		t.Fatal(err)
	}

	parCfg := equivConfig()
	parCfg.Workers = 4
	pp, err := Run(parCfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(ps.ValidationCounts, pp.ValidationCounts) {
		t.Errorf("ValidationCounts differ: %v vs %v", ps.ValidationCounts, pp.ValidationCounts)
	}

	sCerts, pCerts := ps.Corpus.Certs(), pp.Corpus.Certs()
	if len(sCerts) != len(pCerts) {
		t.Fatalf("corpus size differs: %d vs %d (scanning must not depend on Workers)", len(sCerts), len(pCerts))
	}
	for i, rec := range sCerts {
		if rec.Status != pCerts[i].Status {
			t.Fatalf("cert %d status differs: %v vs %v", rec.ID, rec.Status, pCerts[i].Status)
		}
	}

	for _, rec := range sCerts {
		id := rec.ID
		if !reflect.DeepEqual(ps.Dataset.Index.Sightings(id), pp.Dataset.Index.Sightings(id)) {
			t.Fatalf("cert %d sightings differ", id)
		}
		scans := ps.Dataset.Index.ScansSeen(id)
		if !reflect.DeepEqual(scans, pp.Dataset.Index.ScansSeen(id)) {
			t.Fatalf("cert %d ScansSeen differ", id)
		}
		for _, s := range scans {
			if !reflect.DeepEqual(ps.Dataset.Index.IPsInScan(id, s), pp.Dataset.Index.IPsInScan(id, s)) {
				t.Fatalf("cert %d IPsInScan(%d) differ", id, s)
			}
		}
	}

	if !reflect.DeepEqual(ps.LinkResult, pp.LinkResult) {
		t.Errorf("LinkResult differs: %d vs %d groups, %d vs %d linked certs",
			len(ps.LinkResult.Groups), len(pp.LinkResult.Groups),
			ps.LinkResult.LinkedCerts, pp.LinkResult.LinkedCerts)
	}

	var sbuf, pbuf bytes.Buffer
	if err := Summarize(ps).WriteJSON(&sbuf); err != nil {
		t.Fatal(err)
	}
	if err := Summarize(pp).WriteJSON(&pbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sbuf.Bytes(), pbuf.Bytes()) {
		t.Errorf("JSON summaries not byte-identical:\nserial:   %s\nparallel: %s", sbuf.String(), pbuf.String())
	}
	// Both runs share every stage, so pin the serial summary itself: a change
	// that moved every output alike would still pass the comparison above.
	if got := fmt.Sprintf("%x", sha256.Sum256(sbuf.Bytes())); got != wantEquivSummarySHA256 {
		t.Errorf("serial summary SHA-256 = %s, want %s", got, wantEquivSummarySHA256)
	}

	// The text of every experiment obeys the same contract.
	sText, pText := experimentsText(ps), experimentsText(pp)
	if !bytes.Equal(sText, pText) {
		t.Errorf("experiment text not byte-identical:\nserial:\n%s\nparallel:\n%s", sText, pText)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(sText)); got != wantEquivExperimentsSHA256 {
		t.Errorf("serial experiments SHA-256 = %s, want %s", got, wantEquivExperimentsSHA256)
	}
}

// wantEquivSummarySHA256 is the SHA-256 of equivConfig's Summarize JSON.
const wantEquivSummarySHA256 = "077ac289af1f266e3515d84bc9fc65deed87e33b62d3091808f3316923233273"

// wantEquivExperimentsSHA256 is the SHA-256 of equivConfig's experimentsText.
const wantEquivExperimentsSHA256 = "449bf830ecb92aa9f6c813ce43abc3cb1cbb00e212d3cb8e6c43fcba8248c371"

// experimentsText is every experiment's text, "== <id>\n<text>\n" per row in
// registry order.
func experimentsText(p *Pipeline) []byte {
	var b bytes.Buffer
	for _, e := range Experiments() {
		fmt.Fprintf(&b, "== %s\n%s\n", e.ID, e.Run(p))
	}
	return b.Bytes()
}

// dispatchLog is a parallel.Observer that counts pool dispatches and keeps
// every one that was not a single serial block.
type dispatchLog struct {
	mu      sync.Mutex
	n       int
	blocked [][2]int // (block, items) of each dispatch cut into blocks
}

func (d *dispatchLog) ParallelDispatch(block, items int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n++
	if block != items {
		d.blocked = append(d.blocked, [2]int{block, items})
	}
}

// TestWorkersBoundsEveryStage: Config.Workers is the one worker knob of
// both build paths. With GOMAXPROCS at 4 and Workers at 1, every pool
// dispatch of core.Run and of core.StreamSnapshot must run its whole range
// as one serial block.
func TestWorkersBoundsEveryStage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer parallel.SetObserver(nil)
	for _, path := range []struct {
		name  string
		build func(cfg Config) error
	}{
		{"resident", func(cfg Config) error { _, err := Run(cfg); return err }},
		{"streamed", func(cfg Config) error {
			cfg.Stream = StreamConfig{ChunkSize: 64, MemBudget: 1 << 16, SpillDir: t.TempDir()}
			_, err := StreamSnapshot(cfg, true, io.Discard, io.Discard)
			return err
		}},
	} {
		log := &dispatchLog{}
		parallel.SetObserver(log)
		cfg := streamEquivConfig()
		cfg.Workers = 1
		if err := path.build(cfg); err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		parallel.SetObserver(nil)
		if log.n == 0 {
			t.Fatalf("%s: no pool dispatch observed", path.name)
		}
		if len(log.blocked) > 0 {
			t.Errorf("%s: %d of %d dispatches ran in blocks at Workers 1, (block, items) %v",
				path.name, len(log.blocked), log.n, log.blocked)
		}
	}
}
