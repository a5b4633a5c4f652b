package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// SamplesVersion identifies the JSON time-series document schema emitted by
// Sampler.Document (and accepted by ValidateSamples).
const SamplesVersion = 1

// DefaultSampleCapacity is the ring size per metric: at the default 1s
// sampling interval this retains four minutes of history, which is what the
// /statusz sparkline tables need, at a few KiB per metric.
const DefaultSampleCapacity = 240

// SamplerConfig sizes a Sampler. The zero value is usable: capacity
// defaults to DefaultSampleCapacity and Now must be set by the constructor.
type SamplerConfig struct {
	// Capacity is the number of samples retained per metric; older samples
	// fall off the ring. <= 0 means DefaultSampleCapacity.
	Capacity int
	// Interval is the nominal sampling cadence, recorded in the document
	// (interval_ms) so consumers can label the x-axis. The sampler never
	// sleeps itself — ticks arrive from RunTicker or an explicit Tick.
	Interval time.Duration
	// Now is the injected clock stamping each tick. Tests pass a fake; the
	// wall-clock constructor lives in realticker.go (the one sanctioned
	// ticker-clock seam).
	Now func() time.Time
}

// Sampler snapshots a Registry on every Tick into fixed-capacity per-metric
// rings, and renders the retained history as a versioned, byte-stable JSON
// document: windowed deltas and rates for counters, p50/p90/p99 estimates
// for histograms, raw values for gauges.
//
// Determinism contract: Document bytes are a pure function of the tick
// sequence (clock values and registry state at each Tick). Under an
// injected clock ticked at deterministic points, the stable rendering is
// worker-count-independent for the same reason Snapshot is — see DESIGN.md
// "Live telemetry & exposition". A nil *Sampler is a valid no-op.
type Sampler struct {
	reg *Registry
	cfg SamplerConfig

	mu     sync.Mutex
	ticks  uint64
	series map[string]*sampleRing
}

// sampleRing is one metric's bounded history.
type sampleRing struct {
	typ      string
	volatile bool
	samples  ring[samplePoint]
}

// samplePoint is one observation of one metric at one tick.
type samplePoint struct {
	tick   uint64
	unixMS int64
	value  int64   // counter / gauge
	count  uint64  // histogram
	sum    int64   // histogram
	p50    float64 // histogram quantile estimates
	p90    float64
	p99    float64
}

// NewSampler returns a sampler over reg. cfg.Now is required; a nil clock
// panics here rather than at the first tick.
func NewSampler(reg *Registry, cfg SamplerConfig) *Sampler {
	if cfg.Now == nil {
		panic("obs: NewSampler requires an injected clock (use NewWallClockSampler for time.Now)")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultSampleCapacity
	}
	return &Sampler{reg: reg, cfg: cfg, series: make(map[string]*sampleRing)}
}

// Tick takes one sample of every registered metric. Metrics registered
// after earlier ticks simply start their ring late (their first sample
// carries the current tick number).
func (s *Sampler) Tick() {
	if s == nil {
		return
	}
	snap := s.reg.Snapshot()
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ticks++
	for _, m := range snap.Metrics {
		r := s.series[m.Name]
		if r == nil {
			r = &sampleRing{typ: m.Type, volatile: m.Volatile, samples: newRing[samplePoint](s.cfg.Capacity)}
			s.series[m.Name] = r
		}
		p := samplePoint{tick: s.ticks, unixMS: now.UnixMilli()}
		switch m.Type {
		case "counter", "gauge":
			p.value = *m.Value
		case "histogram":
			p.count = *m.Count
			p.sum = *m.Sum
			p.p50, _ = m.Quantile(0.50)
			p.p90, _ = m.Quantile(0.90)
			p.p99, _ = m.Quantile(0.99)
		}
		r.samples.push(p)
	}
}

// Ticks reports how many samples have been taken.
func (s *Sampler) Ticks() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ticks
}

// SamplePoint is one rendered sample. Exactly the fields for the series
// type are populated (pointers so zero values still render explicitly).
type SamplePoint struct {
	Tick   uint64 `json:"tick"`
	UnixMS int64  `json:"unix_ms"`

	// Counter / gauge.
	Value *int64 `json:"value,omitempty"`

	// Histogram.
	Count *uint64  `json:"count,omitempty"`
	Sum   *int64   `json:"sum,omitempty"`
	P50   *float64 `json:"p50,omitempty"`
	P90   *float64 `json:"p90,omitempty"`
	P99   *float64 `json:"p99,omitempty"`
}

// Series is one metric's rendered history, oldest sample first.
type Series struct {
	Name     string        `json:"name"`
	Type     string        `json:"type"`
	Volatile bool          `json:"volatile,omitempty"`
	Samples  []SamplePoint `json:"samples"`

	// Windowed view over the retained samples (counters only): the value
	// delta across the window and its per-second rate. Omitted below two
	// samples; rate is 0 when the window spans no time.
	Delta    *int64   `json:"delta,omitempty"`
	RatePerS *float64 `json:"rate_per_s,omitempty"`
}

// SamplesDoc is the versioned time-series document; see DESIGN.md "Live
// telemetry & exposition" for the schema.
type SamplesDoc struct {
	Version    int      `json:"version"`
	IntervalMS int64    `json:"interval_ms"`
	Capacity   int      `json:"capacity"`
	Ticks      uint64   `json:"ticks"`
	Series     []Series `json:"series"`
}

// Document renders every series in sorted name order, including volatile
// ones — the live endpoint serves it, humans read it.
func (s *Sampler) Document() SamplesDoc { return s.document(false) }

// StableDocument renders the document with volatile series removed — the
// rendering the worker-count matrix test pins byte-for-byte.
func (s *Sampler) StableDocument() SamplesDoc { return s.document(true) }

func (s *Sampler) document(stableOnly bool) SamplesDoc {
	doc := SamplesDoc{Version: SamplesVersion, Series: []Series{}}
	if s == nil {
		return doc
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	doc.IntervalMS = s.cfg.Interval.Milliseconds()
	doc.Capacity = s.cfg.Capacity
	doc.Ticks = s.ticks
	names := make([]string, 0, len(s.series))
	for name := range s.series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := s.series[name]
		if stableOnly && r.volatile {
			continue
		}
		points := r.samples.all()
		se := Series{Name: name, Type: r.typ, Volatile: r.volatile, Samples: make([]SamplePoint, 0, len(points))}
		for _, p := range points {
			sp := SamplePoint{Tick: p.tick, UnixMS: p.unixMS}
			switch r.typ {
			case "counter", "gauge":
				v := p.value
				sp.Value = &v
			case "histogram":
				c, sum, p50, p90, p99 := p.count, p.sum, p.p50, p.p90, p.p99
				sp.Count, sp.Sum, sp.P50, sp.P90, sp.P99 = &c, &sum, &p50, &p90, &p99
			}
			se.Samples = append(se.Samples, sp)
		}
		if r.typ == "counter" && len(se.Samples) >= 2 {
			first, last := se.Samples[0], se.Samples[len(se.Samples)-1]
			delta := *last.Value - *first.Value
			rate := 0.0
			if win := last.UnixMS - first.UnixMS; win > 0 {
				rate = float64(delta) * 1000 / float64(win)
			}
			se.Delta, se.RatePerS = &delta, &rate
		}
		doc.Series = append(doc.Series, se)
	}
	return doc
}

// WriteJSON writes the document as indented JSON plus a newline — the exact
// bytes /samples serves and ValidateSamples accepts.
func (d SamplesDoc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// EncodeJSON returns the WriteJSON bytes; golden tests compare them.
func (d SamplesDoc) EncodeJSON() []byte {
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		panic("obs: encode samples: " + err.Error())
	}
	return buf.Bytes()
}

// ValidateSamples checks data against the time-series document schema:
// version, sorted unique series names, per-type sample shape, strictly
// increasing ticks and non-decreasing counter/histogram-count values within
// a series, and an overall size cap. make telemetry-smoke runs it over a
// live /samples scrape.
func ValidateSamples(data []byte) error {
	if len(data) > maxValidateBytes {
		return fmt.Errorf("obs: samples document: %d bytes exceeds the %d-byte cap", len(data), maxValidateBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc SamplesDoc
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("obs: samples document: %w", err)
	}
	if doc.Version != SamplesVersion {
		return fmt.Errorf("obs: samples document version %d, want %d", doc.Version, SamplesVersion)
	}
	if doc.Capacity < 0 || doc.IntervalMS < 0 {
		return fmt.Errorf("obs: samples document: negative capacity or interval")
	}
	prev := ""
	for i, se := range doc.Series {
		if se.Name == "" {
			return fmt.Errorf("obs: series %d: empty name", i)
		}
		if i > 0 && se.Name <= prev {
			return fmt.Errorf("obs: series %q out of order after %q", se.Name, prev)
		}
		prev = se.Name
		if se.Type != "counter" && se.Type != "gauge" && se.Type != "histogram" {
			return fmt.Errorf("obs: series %q: unknown type %q", se.Name, se.Type)
		}
		if doc.Capacity > 0 && len(se.Samples) > doc.Capacity {
			return fmt.Errorf("obs: series %q: %d samples exceed capacity %d", se.Name, len(se.Samples), doc.Capacity)
		}
		var lastTick uint64
		var lastValue int64
		var lastCount uint64
		for j, sp := range se.Samples {
			if j > 0 && sp.Tick <= lastTick {
				return fmt.Errorf("obs: series %q: tick %d not increasing at sample %d", se.Name, sp.Tick, j)
			}
			lastTick = sp.Tick
			switch se.Type {
			case "counter", "gauge":
				if sp.Value == nil {
					return fmt.Errorf("obs: series %q: sample %d missing value", se.Name, j)
				}
				if sp.Count != nil || sp.Sum != nil || sp.P50 != nil || sp.P90 != nil || sp.P99 != nil {
					return fmt.Errorf("obs: series %q: sample %d has histogram fields", se.Name, j)
				}
				if se.Type == "counter" {
					if *sp.Value < 0 {
						return fmt.Errorf("obs: counter series %q: negative value %d", se.Name, *sp.Value)
					}
					if j > 0 && *sp.Value < lastValue {
						return fmt.Errorf("obs: counter series %q: value decreased at sample %d", se.Name, j)
					}
					lastValue = *sp.Value
				}
			case "histogram":
				if sp.Count == nil || sp.Sum == nil || sp.P50 == nil || sp.P90 == nil || sp.P99 == nil {
					return fmt.Errorf("obs: histogram series %q: sample %d missing count/sum/quantiles", se.Name, j)
				}
				if sp.Value != nil {
					return fmt.Errorf("obs: histogram series %q: sample %d has counter field", se.Name, j)
				}
				if j > 0 && *sp.Count < lastCount {
					return fmt.Errorf("obs: histogram series %q: count decreased at sample %d", se.Name, j)
				}
				lastCount = *sp.Count
				for _, q := range []*float64{sp.P50, sp.P90, sp.P99} {
					if *q != *q {
						return fmt.Errorf("obs: histogram series %q: NaN quantile at sample %d", se.Name, j)
					}
				}
			}
		}
		if (se.Delta != nil) != (se.RatePerS != nil) {
			return fmt.Errorf("obs: series %q: delta and rate_per_s must appear together", se.Name)
		}
		if se.Delta != nil && se.Type != "counter" {
			return fmt.Errorf("obs: series %q: windowed delta on a non-counter", se.Name)
		}
	}
	return nil
}
