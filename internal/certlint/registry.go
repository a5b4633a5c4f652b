package certlint

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"securepki/internal/x509lite"
)

// Linter is one registered check: a stable ID, a version bumped whenever the
// check's behaviour changes (so persisted findings can be attributed to the
// exact rule that produced them), a severity, an applicability profile mask,
// and the check itself. The shape follows pkimetal's linter registry —
// named, versioned backends with declared concurrency — collapsed to
// in-process pure functions.
type Linter struct {
	// ID is the stable registry key, unique across the registry and never
	// reused with different semantics. Lowercase snake_case.
	ID string
	// Version starts at 1 and is bumped whenever the check's behaviour
	// changes; the findings column persists it next to every finding.
	Version int
	// Severity grades every finding this linter emits.
	Severity Severity
	// Describe explains what the linter detects (shown by `certinfo -lint`
	// and asserted non-empty by the registry contract test).
	Describe string
	// Profiles restricts the linter to certificates matching the mask;
	// ProfileAll (zero) runs everywhere.
	Profiles Profile
	// NumInstances declares how many concurrent Check invocations the linter
	// tolerates: 0 means unbounded (a pure function), N > 0 means at most N
	// in flight at once — the engine serialises the surplus. Declared, not
	// inferred, exactly like pkimetal's per-linter instance counts.
	NumInstances int
	// Check returns a detail string and whether the lint triggered. It must
	// be deterministic in (certificate, context).
	Check func(c *x509lite.Certificate, ctx *Context) (string, bool)
}

// LinterInfo is the persisted identity of a linter: what the findings column
// stores so findings stay attributable after the registry evolves.
type LinterInfo struct {
	ID       string
	Version  int
	Severity Severity
}

// Finding is one triggered lint.
type Finding struct {
	LintID   string
	Version  int
	Severity Severity
	Detail   string
}

// String renders "SEVERITY lint_id/vN: detail".
func (f Finding) String() string {
	return fmt.Sprintf("%s %s/v%d: %s", f.Severity, f.LintID, f.Version, f.Detail)
}

// Context supplies population-level knowledge to linters that need it (key
// sharing cannot be judged from one certificate alone). Linters only read
// it, apart from its atomic work counter; the engine shares one value across
// all workers.
type Context struct {
	// KeyCount maps public-key fingerprints to how many distinct
	// certificates carry them; nil disables the shared-key linter.
	KeyCount map[x509lite.Fingerprint]int

	verifies atomic.Int64
}

// Verifies reports the signature checks linters have run under this
// context. A self_signed verdict the certificate already holds (validation
// checked it first) costs none, so in the pipeline this counts only the
// certificates validation never self-checks.
func (c *Context) Verifies() int64 { return c.verifies.Load() }

// Registry holds named linters. The zero value is unusable; construct with
// NewRegistry (empty) or Default (the full built-in battery). Registration
// is not goroutine-safe — register everything before running.
type Registry struct {
	linters []Linter
	byID    map[string]int
	// gates serialise linters with declared NumInstances > 0; built lazily
	// at first run and keyed by linter index.
	gatesOnce sync.Once
	gates     map[int]chan struct{}

	// sortIdx caches linter indexes in ID order — the engine walks it per
	// certificate, so it must not be re-sorted in the hot loop.
	sortOnce sync.Once
	sortIdx  []int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]int)}
}

// Register adds a linter, enforcing the registry contract: non-empty unique
// ID, version ≥ 1, a description and a check function.
func (r *Registry) Register(l Linter) error {
	if l.ID == "" {
		return fmt.Errorf("certlint: linter with empty ID")
	}
	if l.Version < 1 {
		return fmt.Errorf("certlint: linter %s has version %d, want >= 1", l.ID, l.Version)
	}
	if l.Severity < Info || l.Severity > Fatal {
		return fmt.Errorf("certlint: linter %s has severity %d outside the taxonomy", l.ID, l.Severity)
	}
	if l.Describe == "" {
		return fmt.Errorf("certlint: linter %s has no description", l.ID)
	}
	if l.Check == nil {
		return fmt.Errorf("certlint: linter %s has no check", l.ID)
	}
	if l.NumInstances < 0 {
		return fmt.Errorf("certlint: linter %s declares %d instances", l.ID, l.NumInstances)
	}
	if _, dup := r.byID[l.ID]; dup {
		return fmt.Errorf("certlint: duplicate linter ID %s", l.ID)
	}
	r.byID[l.ID] = len(r.linters)
	r.linters = append(r.linters, l)
	return nil
}

// MustRegister is Register that panics — for the built-in battery, where a
// registration error is a programming bug.
func (r *Registry) MustRegister(l Linter) {
	if err := r.Register(l); err != nil {
		panic(err)
	}
}

// Len returns the number of registered linters.
func (r *Registry) Len() int { return len(r.linters) }

// Linters returns the battery sorted by ID — the registry's canonical order,
// which the engine, the survey and the findings column all share.
func (r *Registry) Linters() []Linter {
	out := append([]Linter(nil), r.linters...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Infos returns the persisted identities, sorted by ID.
func (r *Registry) Infos() []LinterInfo {
	ls := r.Linters()
	out := make([]LinterInfo, len(ls))
	for i, l := range ls {
		out[i] = LinterInfo{ID: l.ID, Version: l.Version, Severity: l.Severity}
	}
	return out
}

// Lookup finds a linter by ID.
func (r *Registry) Lookup(id string) (Linter, bool) {
	i, ok := r.byID[id]
	if !ok {
		return Linter{}, false
	}
	return r.linters[i], true
}

// sortedIndexes returns linter indexes in ID order, computed once.
func (r *Registry) sortedIndexes() []int {
	r.sortOnce.Do(func() {
		r.sortIdx = make([]int, len(r.linters))
		for i := range r.sortIdx {
			r.sortIdx[i] = i
		}
		sort.Slice(r.sortIdx, func(a, b int) bool {
			return r.linters[r.sortIdx[a]].ID < r.linters[r.sortIdx[b]].ID
		})
	})
	return r.sortIdx
}

// gate returns the concurrency gate for linter index i, or nil when the
// linter runs unbounded.
func (r *Registry) gate(i int) chan struct{} {
	r.gatesOnce.Do(func() {
		r.gates = make(map[int]chan struct{})
		for j, l := range r.linters {
			if l.NumInstances > 0 {
				r.gates[j] = make(chan struct{}, l.NumInstances)
			}
		}
	})
	return r.gates[i]
}

// defaultOnce builds the process-wide default registry a single time; the
// battery is immutable after construction, so sharing it is safe.
var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the built-in battery: the paper's §4/§5 invalid-certificate
// taxonomy ported as the first registered profile, plus the extended RFC
// 5280 checks. The result is shared; do not register into it.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewRegistry()
		registerPaperLints(defaultReg)
		registerExtendedLints(defaultReg)
	})
	return defaultReg
}
