// Package debugvars is a repolint fixture: debug-endpoint machinery leaking
// into the library layer. expvar and net/http/pprof register handlers on
// process-global state at import time; only the cmd/* binaries may opt in
// to that (behind -debug-addr), never a library package.
package debugvars

import (
	"expvar"           // want bannedimport must not import expvar
	_ "net/http/pprof" // want bannedimport must not import net/http/pprof
)

// Requests would publish a process-global metric from library code.
var Requests = expvar.NewInt("requests")
