package stats

import (
	"testing"
	"time"
)

// fakeClock advances a fixed step per read, so timer behaviour is exact.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func TestTimerInjectedClock(t *testing.T) {
	c := &fakeClock{t: time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC), step: 1500 * time.Millisecond}
	timer := StartTimerAt(c.now)
	if got := timer.Elapsed(); got != 1500*time.Millisecond {
		t.Errorf("Elapsed = %v, want 1.5s", got)
	}
	if got := timer.Seconds(); got != 3.0 {
		t.Errorf("Seconds = %v, want 3 (second read advances the fake clock again)", got)
	}
	if got := timer.String(); got != "4.5s" {
		t.Errorf("String = %q, want \"4.5s\"", got)
	}
}

func TestTimerStringRounds(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0), step: 1234567890 * time.Nanosecond} // 1.23456789s
	timer := StartTimerAt(c.now)
	if got := timer.String(); got != "1.235s" {
		t.Errorf("String = %q, want \"1.235s\"", got)
	}
}
