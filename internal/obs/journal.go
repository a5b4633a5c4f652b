package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultJournalTail is the number of events the in-memory tail retains for
// the /events endpoint and /statusz.
const DefaultJournalTail = 256

// Event is one journal entry: a monotonically increasing sequence number, a
// clock stamp, an event type ("sweep.start", "spill", "query.5xx", ...) and
// sorted-key attributes. Attrs marshals with sorted keys (encoding/json
// sorts map keys), so event bytes are a pure function of (seq, clock, type,
// attrs).
type Event struct {
	Seq   uint64            `json:"seq"`
	Time  string            `json:"time"`
	Type  string            `json:"type"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Journal is the structured event log: deterministic JSONL lines appended
// to an optional writer (-events-out) plus a bounded in-memory tail served
// at /events. Like the span tracer it lives on an injected clock — the
// wall-clock constructor is NewWallClockJournal. Emission points must be
// serial program points (stage boundaries, sweep boundaries, fold loops) so
// the line sequence is worker-count-independent; see DESIGN.md "Live
// telemetry & exposition". A nil *Journal is a valid no-op.
type Journal struct {
	now func() time.Time

	mu   sync.Mutex
	w    io.Writer
	err  error
	seq  uint64
	tail ring[Event]
}

// NewJournal returns a journal writing one JSON object per line to w (nil
// discards lines but still feeds the tail), stamping events from now, and
// retaining tailCap events in memory (<= 0 means DefaultJournalTail).
func NewJournal(w io.Writer, now func() time.Time, tailCap int) *Journal {
	if tailCap <= 0 {
		tailCap = DefaultJournalTail
	}
	return &Journal{w: w, now: now, tail: newRing[Event](tailCap)}
}

// Emit appends one event. kv lists attributes as alternating key, value
// pairs; a trailing odd key is dropped rather than inventing a value.
func (j *Journal) Emit(typ string, kv ...string) {
	if j == nil {
		return
	}
	var attrs map[string]string
	if len(kv) >= 2 {
		attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			attrs[kv[i]] = kv[i+1]
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	ev := Event{
		Seq:   j.seq,
		Time:  j.now().UTC().Format(time.RFC3339Nano),
		Type:  typ,
		Attrs: attrs,
	}
	j.tail.push(ev)
	if j.w == nil {
		return
	}
	line, err := json.Marshal(ev)
	if err == nil {
		line = append(line, '\n')
		_, err = j.w.Write(line)
	}
	if err != nil && j.err == nil {
		j.err = err
	}
}

// Tail returns the retained events, oldest first.
func (j *Journal) Tail() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tail.all()
}

// Seq reports how many events have been emitted.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Err reports the first write error the journal hit, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ValidateEvents checks data against the JSONL event schema: one object per
// line, sequence numbers strictly increasing, an RFC3339 timestamp and a
// non-empty type, under the same size cap as the other validators.
func ValidateEvents(data []byte) error {
	if len(data) > maxValidateBytes {
		return fmt.Errorf("obs: event journal: %d bytes exceeds the %d-byte cap", len(data), maxValidateBytes)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	var lastSeq uint64
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("obs: event line %d: %w", lineNo, err)
		}
		if ev.Seq <= lastSeq {
			return fmt.Errorf("obs: event line %d: seq %d not increasing after %d", lineNo, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Type == "" {
			return fmt.Errorf("obs: event line %d: empty type", lineNo)
		}
		if _, err := time.Parse(time.RFC3339Nano, ev.Time); err != nil {
			return fmt.Errorf("obs: event line %d: bad timestamp: %w", lineNo, err)
		}
	}
	return sc.Err()
}
