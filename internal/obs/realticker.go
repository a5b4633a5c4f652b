package obs

import "time"

// The one sanctioned ticker-clock seam: this file — and only this file —
// joins realclock.go on the repolint wallclock allowlist so the live
// sampler can stamp wall-clock samples. Everything else in the package
// takes an injected clock.

// NewWallClockSampler returns a sampler over reg ticking wall-clock
// timestamps. interval is recorded in the document and used by RunTicker;
// capacity <= 0 means DefaultSampleCapacity.
func NewWallClockSampler(reg *Registry, interval time.Duration, capacity int) *Sampler {
	return NewSampler(reg, SamplerConfig{Capacity: capacity, Interval: interval, Now: time.Now})
}

// RunTicker samples on the configured interval until stop is closed —
// the goroutine a cmd starts next to its -debug-addr listener. Intervals
// <= 0 fall back to one second.
func (s *Sampler) RunTicker(stop <-chan struct{}) {
	if s == nil {
		return
	}
	interval := s.cfg.Interval
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.Tick()
		}
	}
}
