package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"securepki/internal/stats"
)

// Tracer emits span events as JSON lines on an injected clock. The clock is
// a constructor argument (never time.Now inside internal/ — the wallclock
// rule enforces it); cmd-level callers pass time.Now or use
// NewWallClockTracer. A nil *Tracer is a valid no-op: Start returns a nil
// span whose methods all no-op, so instrumented code never branches.
type Tracer struct {
	now func() time.Time

	mu   sync.Mutex
	w    io.Writer
	err  error
	tail ring[SpanRecord] // completed spans (KeepTail)
}

// SpanRecord is one completed span retained for /statusz: the per-stage
// durations a status page shows without re-reading the trace file.
type SpanRecord struct {
	Name  string            `json:"name"`
	Start time.Time         `json:"start"`
	Dur   time.Duration     `json:"dur"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// KeepTail makes the tracer retain the last n completed spans in memory
// (in End order) for Tail; n <= 0 disables retention.
func (t *Tracer) KeepTail(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tail = newRing[SpanRecord](max(n, 0))
}

// Tail returns the retained completed spans, oldest first.
func (t *Tracer) Tail() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tail.all()
}

// NewTracer returns a tracer writing one JSON object per line to w, with
// timestamps and durations taken from now. A nil writer discards events
// but still times spans (Span.Timer works).
func NewTracer(w io.Writer, now func() time.Time) *Tracer {
	return &Tracer{w: w, now: now}
}

// Err reports the first write error the tracer hit, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Span is one timed phase. Timer is the underlying stats.Timer (the span's
// clock seam) — callers print it in progress lines exactly as they printed
// the bare Timer before obs existed.
type Span struct {
	Name  string
	Timer *stats.Timer

	tracer *Tracer
	attrs  map[string]string
}

// Start begins a span named name. The returned span must be ended with End
// to emit its event.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{Name: name, Timer: stats.StartTimerAt(t.now), tracer: t}
}

// SetAttr attaches a key/value attribute to the span's event. Attributes
// render in sorted key order.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[key] = value
}

// SetAttrInt is SetAttr for integer values.
func (s *Span) SetAttrInt(key string, value int64) {
	s.SetAttr(key, fmt.Sprintf("%d", value))
}

// traceEvent is the JSON-lines schema; see DESIGN.md "Observability
// contract". Attrs marshals with sorted keys (encoding/json sorts map
// keys), so event bytes are a pure function of (clock, name, attrs).
type traceEvent struct {
	Type  string            `json:"type"`
	Name  string            `json:"name"`
	Start string            `json:"start"`
	DurUS int64             `json:"dur_us"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// End stops the span, emits its event and returns the duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := s.Timer.Elapsed()
	ev := traceEvent{
		Type:  "span",
		Name:  s.Name,
		Start: s.Timer.StartedAt().UTC().Format(time.RFC3339Nano),
		DurUS: d.Microseconds(),
		Attrs: s.attrs,
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tail.push(SpanRecord{Name: s.Name, Start: s.Timer.StartedAt(), Dur: d, Attrs: s.attrs})
	if t.w == nil {
		return d
	}
	line, err := json.Marshal(ev)
	if err == nil {
		line = append(line, '\n')
		_, err = t.w.Write(line)
	}
	if err != nil && t.err == nil {
		t.err = err
	}
	return d
}

// attrKeys is a test hook: the sorted attribute keys of a span.
func (s *Span) attrKeys() []string {
	if s == nil {
		return nil
	}
	keys := make([]string, 0, len(s.attrs))
	for k := range s.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
