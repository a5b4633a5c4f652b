package stats

import "time"

// Timer measures phase durations for CLI progress reporting. Its clock is
// injected (StartTimerAt), so the simulation packages stay free of time.Now
// and the repolint wallclock allowlist stays narrow: obs.NewWallClockTracer
// hands its spans' Timers the wall clock. Everything a Timer measures is
// presentation-only — pipeline output never depends on it.
type Timer struct {
	start time.Time
	now   func() time.Time
}

// StartTimerAt begins timing on an injected clock; tests pass a fake.
func StartTimerAt(now func() time.Time) *Timer {
	return &Timer{start: now(), now: now}
}

// StartedAt returns the instant the timer started — obs spans stamp their
// trace events with it.
func (t *Timer) StartedAt() time.Time {
	return t.start
}

// Elapsed returns the time since the timer started.
func (t *Timer) Elapsed() time.Duration {
	return t.now().Sub(t.start)
}

// Seconds returns the elapsed time in seconds.
func (t *Timer) Seconds() float64 {
	return t.Elapsed().Seconds()
}

// String renders the elapsed time rounded to the millisecond, the format
// the CLIs print in progress lines.
func (t *Timer) String() string {
	return t.Elapsed().Round(time.Millisecond).String()
}
