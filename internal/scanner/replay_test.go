package scanner

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/scanstore"
	"securepki/internal/x509lite"
)

// recordingSink is a Sink that records every call and hands out IDs in
// order.
type recordingSink struct {
	calls []string
	next  scanstore.CertID
}

func (r *recordingSink) BeginScan(op scanstore.Operator, at time.Time) error {
	r.calls = append(r.calls, fmt.Sprintf("scan %v %s", op, at.Format(time.DateOnly)))
	return nil
}

func (r *recordingSink) Add(der []byte, fp, spki x509lite.Fingerprint) (scanstore.CertID, error) {
	if string(fp[:len(der)]) != string(der) || spki[0] != der[0] {
		return 0, fmt.Errorf("add %q: fingerprint or SPKI of another certificate", der)
	}
	r.calls = append(r.calls, fmt.Sprintf("add %s=%d", der, r.next))
	r.next++
	return r.next - 1, nil
}

func (r *recordingSink) AddObs(id scanstore.CertID, ip netsim.IP) error {
	r.calls = append(r.calls, fmt.Sprintf("obs %d@%d", id, ip))
	return nil
}

// namedCert is a certificate whose DER is its name, and whose fingerprint
// and SPKI derive from it.
func namedCert(name string) newCert {
	var c newCert
	copy(c.FP[:], name)
	c.SPKI[0] = name[0]
	c.DER = []byte(name)
	return c
}

// twoScans is a schedule of two scans, a day apart.
func twoScans() []scanstore.Scan {
	at := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	return []scanstore.Scan{
		{ID: 0, Operator: scanstore.UMich, Time: at},
		{ID: 1, Operator: scanstore.Rapid7, Time: at.AddDate(0, 0, 1)},
	}
}

// TestReplayFirstSightingOrder: certificate "x" is new to chunk 1 at scan 0
// and, numbered afresh, new to chunk 0 at scan 1. Replay adds it once, at
// its first sighting in scan-major order, and maps every sighting in either
// chunk to its one ID, whether the chunks stay live or spill.
func TestReplayFirstSightingOrder(t *testing.T) {
	chunk0 := newChunkRecord(2)
	chunk0.addCert(0, namedCert("a"))
	chunk0.addObs(0, obsRec{Local: 0, IP: 11})
	chunk0.addCert(1, namedCert("x"))
	chunk0.addObs(1, obsRec{Local: 1, IP: 12})
	chunk0.addObs(1, obsRec{Local: 0, IP: 13})
	chunk1 := newChunkRecord(2)
	chunk1.addCert(0, namedCert("b"))
	chunk1.addCert(0, namedCert("x"))
	chunk1.addObs(0, obsRec{Local: 1, IP: 21})
	chunk1.addObs(0, obsRec{Local: 0, IP: 22})
	chunk1.addObs(1, obsRec{Local: 1, IP: 23})

	sched := twoScans()
	want := []string{
		"scan Univ. Michigan 2013-06-01",
		"add a=0", "obs 0@11", // chunk 0
		"add b=1", "add x=2", "obs 2@21", "obs 1@22", // chunk 1
		"scan Rapid7 2013-06-02",
		"obs 2@12", "obs 0@13", // chunk 0: x is chunk-local 1 here
		"obs 2@23", // chunk 1
	}
	for _, budget := range []int64{0, 1} {
		cs := NewChunkStore(2, budget, t.TempDir())
		defer cs.Close()
		for _, rec := range []*chunkRecord{chunk0, chunk1} {
			if err := buildChunk(cs, rec); err != nil {
				t.Fatal(err)
			}
		}
		var sink recordingSink
		n, err := cs.Replay(sched, &sink)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !slices.Equal(sink.calls, want) {
			t.Fatalf("budget %d (%d chunks spilled): calls\n %q\nwant\n %q", budget, cs.Spills(), sink.calls, want)
		}
		if n != 6 {
			t.Fatalf("budget %d: Replay reports %d sightings, want 6", budget, n)
		}
	}
}

// TestReplayRejectsUnknownLocal: a sighting that names a chunk-local number
// past the certificates its chunk has produced so far fails the replay with
// an explicit error.
func TestReplayRejectsUnknownLocal(t *testing.T) {
	rec := newChunkRecord(2)
	rec.addCert(0, namedCert("a"))
	rec.addObs(0, obsRec{Local: 0, IP: 11})
	rec.addObs(1, obsRec{Local: 1, IP: 12})
	cs := NewChunkStore(2, 0, t.TempDir())
	defer cs.Close()
	if err := buildChunk(cs, rec); err != nil {
		t.Fatal(err)
	}
	_, err := cs.Replay(twoScans(), &recordingSink{})
	if err == nil || !strings.Contains(err.Error(), "chunk 0 scan 1 sighting names local certificate 1 of 1") {
		t.Fatalf("Replay over an unknown local number: err = %v", err)
	}
}

// TestReplayDetectsRot: a spilled chunk whose file rots after the write
// fails the replay with the spill's digest mismatch.
func TestReplayDetectsRot(t *testing.T) {
	rec := newChunkRecord(2)
	for s, name := range []string{"a", "b"} {
		rec.addCert(s, namedCert(name))
		rec.addObs(s, obsRec{Local: uint32(s), IP: uint32(10 + s)})
	}
	dir := t.TempDir()
	cs := NewChunkStore(2, 1, dir)
	defer cs.Close()
	if err := buildChunk(cs, rec); err != nil {
		t.Fatal(err)
	}
	path := spillPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1 // inside scan 1's observations
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Replay(twoScans(), &recordingSink{}); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("Replay over a rotted spill: err = %v, want a digest mismatch", err)
	}
}
