package wire

import (
	"context"
	"errors"
	"reflect"
	"syscall"
	"testing"
	"time"

	"securepki/internal/obs"
)

// TestFoldSweep pins the one SweepStats fold, the -json summary's reason
// taxonomy included, over every result shape the scanner produces, and the
// sweep.* counters it publishes: each with its value, and only the ones a
// sweep has something to count in, beside sweep.targets, which every sweep
// registers, as it does the attempts histogram.
func TestFoldSweep(t *testing.T) {
	cases := []struct {
		name     string
		results  []Result
		want     SweepStats // Reasons unset: see reasons
		reasons  map[string]int
		counters map[string]int64
	}{
		{"empty", nil, SweepStats{}, map[string]int{},
			map[string]int64{"sweep.targets": 0}},
		{"clean", []Result{
			{Addr: "a", Attempts: 1},
			{Addr: "b", Attempts: 1},
		}, SweepStats{Targets: 2, OK: 2, Attempts: 2}, map[string]int{},
			map[string]int64{"sweep.targets": 2, "sweep.attempts": 2, "sweep.ok": 2}},
		{"recovered", []Result{
			{Addr: "a", Attempts: 3, FailReasons: []string{"refused", "timeout"}},
		}, SweepStats{Targets: 1, OK: 1, Attempts: 3, Retries: 2},
			map[string]int{"retry:refused": 1, "retry:timeout": 1},
			map[string]int64{"sweep.targets": 1, "sweep.attempts": 3, "sweep.retries": 2, "sweep.ok": 1,
				"sweep.retry.refused": 1, "sweep.retry.timeout": 1}},
		{"failed terminal", []Result{
			{Addr: "a", Attempts: 1, FailReasons: []string{"malformed-cert"}, Err: ErrMalformedCert},
		}, SweepStats{Targets: 1, Failed: 1, Attempts: 1},
			map[string]int{"fail:malformed-cert": 1},
			map[string]int64{"sweep.targets": 1, "sweep.attempts": 1, "sweep.failed": 1, "sweep.fail.malformed-cert": 1}},
		{"failed after retries", []Result{
			{Addr: "a", Attempts: 4, FailReasons: []string{"reset", "reset", "refused", "timeout"},
				Err: syscall.ETIMEDOUT},
		}, SweepStats{Targets: 1, Failed: 1, Attempts: 4, Retries: 3},
			map[string]int{"fail:timeout": 1, "retry:reset": 2, "retry:refused": 1},
			map[string]int64{"sweep.targets": 1, "sweep.attempts": 4, "sweep.retries": 3, "sweep.failed": 1,
				"sweep.fail.timeout": 1, "sweep.retry.reset": 2, "sweep.retry.refused": 1}},
		{"cancelled before first attempt", []Result{
			{Addr: "a", Attempts: 0, Err: context.Canceled},
		}, SweepStats{Targets: 1, Failed: 1},
			map[string]int{"fail:canceled": 1},
			map[string]int64{"sweep.targets": 1, "sweep.attempts": 0, "sweep.failed": 1, "sweep.fail.canceled": 1}},
		{"mixed", []Result{
			{Addr: "a", Attempts: 1},
			{Addr: "b", Attempts: 2, FailReasons: []string{"refused"}},
			{Addr: "c", Attempts: 2, FailReasons: []string{"protocol", "protocol"},
				Err: errors.New("protocol")},
			{Addr: "d", Attempts: 0, Err: context.Canceled},
		}, SweepStats{Targets: 4, OK: 2, Failed: 2, Attempts: 5, Retries: 2},
			map[string]int{"retry:refused": 1, "retry:protocol": 1, "fail:protocol": 1, "fail:canceled": 1},
			map[string]int64{"sweep.targets": 4, "sweep.attempts": 5, "sweep.retries": 2, "sweep.ok": 2,
				"sweep.failed": 2, "sweep.retry.refused": 1, "sweep.retry.protocol": 1,
				"sweep.fail.protocol": 1, "sweep.fail.canceled": 1}},
	}
	for _, tc := range cases {
		reg := obs.NewRegistry()
		got := FoldSweep(reg, tc.results)
		if got.Targets != tc.want.Targets || got.OK != tc.want.OK || got.Failed != tc.want.Failed ||
			got.Attempts != tc.want.Attempts || got.Retries != tc.want.Retries {
			t.Errorf("%s: FoldSweep = %+v, want %+v", tc.name, got, tc.want)
		}
		if !reflect.DeepEqual(got.Reasons.Map(), tc.reasons) {
			t.Errorf("%s: reasons = %v, want %v", tc.name, got.Reasons.Map(), tc.reasons)
		}
		counters := map[string]int64{}
		observed := -1
		for _, m := range reg.Snapshot().Metrics {
			switch m.Type {
			case "counter":
				counters[m.Name] = *m.Value
			case "histogram":
				observed = int(*m.Count)
			}
		}
		if !reflect.DeepEqual(counters, tc.counters) {
			t.Errorf("%s: counters = %v, want %v", tc.name, counters, tc.counters)
		}
		if observed != len(tc.results) {
			t.Errorf("%s: attempts histogram holds %d observations, want %d", tc.name, observed, len(tc.results))
		}
		if nilReg := FoldSweep(nil, tc.results); !reflect.DeepEqual(nilReg, got) {
			t.Errorf("%s: FoldSweep without a registry = %+v, want %+v", tc.name, nilReg, got)
		}
	}
}

// TestScanRetryFoldsIntoCallerRegistry: the caller's registry accumulates
// the same sweep.* counters SweepStats reports, plus live wire.* metrics.
func TestScanRetryFoldsIntoCallerRegistry(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", StaticChain([][]byte{{0x30, 0x01, 0x00}}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	targets := []string{srv.Addr(), srv.Addr(), srv.Addr()}
	opts := Options{AttemptTimeout: 2 * time.Second, Obs: reg}
	_, st := ScanRetry(context.Background(), targets, 2, opts)
	if st.OK != 3 {
		t.Fatalf("OK = %d, want 3", st.OK)
	}
	if got := reg.Counter("sweep.ok").Value(); got != int64(st.OK) {
		t.Fatalf("sweep.ok = %d, SweepStats.OK = %d", got, st.OK)
	}
	if got := reg.Counter("sweep.attempts").Value(); got != int64(st.Attempts) {
		t.Fatalf("sweep.attempts = %d, SweepStats.Attempts = %d", got, st.Attempts)
	}
	if got := reg.Counter("wire.attempts").Value(); got != int64(st.Attempts) {
		t.Fatalf("wire.attempts = %d, want %d", got, st.Attempts)
	}
	if got := reg.Counter("wire.attempt.ok").Value(); got != 3 {
		t.Fatalf("wire.attempt.ok = %d, want 3", got)
	}
	// A second sweep accumulates rather than resets.
	_, _ = ScanRetry(context.Background(), targets, 2, opts)
	if got := reg.Counter("sweep.targets").Value(); got != 6 {
		t.Fatalf("sweep.targets after two sweeps = %d, want 6", got)
	}
}
