package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// compareBaseline is a committed report with two benchmarks.
const compareBaseline = `{"context":{},"benchmarks":[
{"name":"BenchmarkWrite/v3-2","iterations":50,"metrics":{"B/op":1000000,"allocs/op":1000,"ns/op":2000000}},
{"name":"BenchmarkRead-2","iterations":40,"metrics":{"B/op":500,"allocs/op":0,"ns/op":100}}]}`

// freshRuns renders -count runs of BenchmarkWrite/v3-2 as go test prints
// them, one B/op, allocs/op and ns/op per run.
func freshRuns(bytesPerOp, allocs, ns []float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\npkg: securepki/internal/snapshot\n")
	for i := range bytesPerOp {
		b.WriteString("BenchmarkWrite/v3-2  \t 50\t ")
		b.WriteString(strings.Join([]string{
			ftoa(ns[i]) + " ns/op", ftoa(bytesPerOp[i]) + " B/op", ftoa(allocs[i]) + " allocs/op",
		}, "\t "))
		b.WriteString("\n")
	}
	b.WriteString("PASS\nok  \tsecurepki/internal/snapshot\t3.1s\n")
	return b.String()
}

func ftoa(v float64) string {
	out, _ := json.Marshal(v)
	return string(out)
}

// runCompare compares fixture bench output with compareBaseline.
func runCompare(t *testing.T, benchOut string) (string, bool, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(compareBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := readBench(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressed, err := compareFile(&out, path, fresh)
	return out.String(), regressed, err
}

// TestCompareTakesMedians: one wild run in five moves no median, and ns/op,
// however far it moves, is printed but never fails the comparison.
func TestCompareTakesMedians(t *testing.T) {
	out, regressed, err := runCompare(t, freshRuns(
		[]float64{1000000, 1030000, 9000000, 990000, 1040000},
		[]float64{1000, 1000, 5000, 1000, 1020},
		[]float64{4000000, 4100000, 3900000, 4200000, 4000000},
	))
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("medians within 5%% reported as a regression:\n%s", out)
	}
	for _, want := range []string{"B/op", "1030000", "+3.0%", "allocs/op", "1000", "ns/op", "4000000", "+100.0%", "info"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "BenchmarkRead") {
		t.Errorf("a benchmark the fresh output lacks was compared:\n%s", out)
	}
}

// TestCompareFailsOnRise: a median B/op or allocs/op more than 5% above the
// baseline fails; exactly 5% passes.
func TestCompareFailsOnRise(t *testing.T) {
	for _, tc := range []struct {
		name          string
		bytes, allocs float64
		want          bool
	}{
		{"bytes +6%", 1060000, 1000, true},
		{"allocs +6%", 1000000, 1060, true},
		{"both +5%", 1050000, 1050, false},
		{"both lower", 800000, 900, false},
	} {
		five := func(v float64) []float64 { return []float64{v, v, v, v, v} }
		out, regressed, err := runCompare(t, freshRuns(five(tc.bytes), five(tc.allocs), five(2000000)))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.want {
			t.Errorf("%s: regressed = %v, want %v:\n%s", tc.name, regressed, tc.want, out)
		}
		if tc.want && !strings.Contains(out, "REGRESSED") {
			t.Errorf("%s: no REGRESSED row:\n%s", tc.name, out)
		}
	}
}

// TestCompareNeedsFiveRuns: a benchmark run fewer than five times is an
// error, not a comparison of one noisy sample.
func TestCompareNeedsFiveRuns(t *testing.T) {
	four := []float64{1, 1, 1, 1}
	_, _, err := runCompare(t, freshRuns(four, four, four))
	if err == nil || !strings.Contains(err.Error(), "ran 4 times") {
		t.Fatalf("err = %v, want a run-count error", err)
	}
	if _, _, err := runCompare(t, "PASS\n"); err == nil {
		t.Fatal("output with no benchmark compared without error")
	}
}

// TestCompareZeroBaseline: a metric at zero in the baseline fails on any
// rise, and its delta prints as n/a.
func TestCompareZeroBaseline(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 5; i++ {
		b.WriteString("BenchmarkRead-2 40 100 ns/op 500 B/op 1 allocs/op\n")
	}
	out, regressed, err := runCompare(t, b.String())
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out, "n/a") {
		t.Fatalf("allocs/op 0 → 1 not reported as a regression:\n%s", out)
	}
}
