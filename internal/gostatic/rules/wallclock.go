// Package rules holds the repo-specific analyzers that enforce the
// determinism & concurrency contract documented in DESIGN.md ("Static
// analysis contract"). Each analyzer reports file:line findings with a
// stable rule ID and a fix hint; Default returns the full battery in the
// order repolint runs it.
package rules

import (
	"go/ast"

	"securepki/internal/gostatic"
)

// Wallclock flags reads of the wall clock — time.Now and time.Since —
// inside the simulation and analysis packages, both as calls and as value
// references (`StartTimerAt(time.Now)` smuggles the clock just as surely as
// calling it). The devicesim/scanner world must advance only via simulated
// time (devices reissue on simulated schedules, scans take simulated
// hours); a stray time.Now makes a run irreproducible. The real-network
// layer (internal/wire) and the wall-clock seam files
// (internal/obs/realclock.go, internal/obs/realticker.go) are allowlisted in
// repolint.json.
var Wallclock = &gostatic.Analyzer{
	Name: "wallclock",
	Doc:  "no wall-clock reads (time.Now / time.Since), called or referenced, inside simulation and analysis packages",
	Run:  runWallclock,
}

func runWallclock(pass *gostatic.Pass) {
	for _, f := range pass.Files {
		// First pass: flag direct calls and remember their Fun expressions so
		// the value-reference pass below does not double-report them.
		calledFuns := make(map[ast.Expr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			calledFuns[ast.Unparen(call.Fun)] = true
			switch {
			case pass.PkgFunc(call, "time", "Now"):
				pass.Report(call.Pos(),
					"time.Now() reads the wall clock inside a simulation/analysis package",
					"thread the simulated clock, or inject a `now func() time.Time`")
			case pass.PkgFunc(call, "time", "Since"):
				pass.Report(call.Pos(),
					"time.Since() measures wall-clock elapsed time inside a simulation/analysis package",
					"compute durations from simulated timestamps, or inject a clock")
			}
			return true
		})
		// Second pass: flag time.Now / time.Since escaping as values
		// (`StartTimerAt(time.Now)`, `clock := time.Now`) — the clock leaks
		// into the callee all the same, so only the sanctioned injection
		// seams may do this (they are allowlisted by file).
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || calledFuns[sel] {
				return true
			}
			switch {
			case pass.PkgRef(sel, "time", "Now"):
				pass.Report(sel.Pos(),
					"time.Now referenced as a value inside a simulation/analysis package",
					"pass an injected `now func() time.Time` instead of the wall clock itself")
			case pass.PkgRef(sel, "time", "Since"):
				pass.Report(sel.Pos(),
					"time.Since referenced as a value inside a simulation/analysis package",
					"compute durations from simulated timestamps, or inject a clock")
			}
			return true
		})
	}
}
