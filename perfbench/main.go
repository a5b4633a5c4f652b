// Command perfbench is the repository benchmark. One run executes one
// workload — repeated resident or streamed builds, then a closed-loop query
// mix against certquery serving the built snapshot — checks every output,
// and prints one JSON result line whose metrics carry their units. README.md lists the workloads, the
// metrics and the layer each metric watches.
//
// Builds run in fresh child processes of this binary ("perfbench child …"),
// so a build's CPU time and peak RSS belong to that build alone. Queries go
// over HTTP to a real certquery process.
//
// run.sh builds both binaries from the checkout, then runs
//
//	perfbench -certquery <bin> -work <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// runDeadline bounds one run, children and servers included.
const runDeadline = 170 * time.Second

var workloads = []string{"build-resident", "build-streamed"}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	certquery string
	work      string
	inject    string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(runnerMain(os.Args[1:]))
}

func runnerMain(args []string) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "build-resident or build-streamed")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated world, its scans and the query keys")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured phase, in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	fs.StringVar(&o.certquery, "certquery", "", "certquery binary that serves the query phase")
	fs.StringVar(&o.work, "work", "", "directory for snapshots, spills and fixtures")
	fs.StringVar(&o.inject, "inject", "", `corrupt one expected "digest" or "status", to show the output gate failing`)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	if err := o.check(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func (o options) check() error {
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown -workload %q (want one of %v)", o.workload, workloads)
	case o.seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	case o.certquery == "" || o.work == "":
		return fmt.Errorf("-certquery and -work are required (run.sh sets both)")
	case o.inject != "" && o.inject != "digest" && o.inject != "status":
		return fmt.Errorf("unknown -inject %q", o.inject)
	}
	return nil
}
