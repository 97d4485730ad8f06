package trace

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Store keeps the most recent captured traces in one mutex-guarded
// ring of exactly its capacity: an append holds the mutex for a pointer
// swap, and a /debug/traces export holds it only to copy the pointers,
// so a slow scrape client never blocks appends for longer than that.
type Store struct {
	mu      sync.Mutex
	ring    []*Trace // fixed-size ring; nil slots until filled
	next    int      // next write position
	n       int      // traces currently held
	dropped uint64   // traces evicted by ring wraparound
}

// NewStore returns a store holding up to capacity traces (capacities < 1
// default to 256).
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = 256
	}
	return &Store{ring: make([]*Trace, capacity)}
}

// Capacity returns the number of traces the store can hold.
func (s *Store) Capacity() int { return len(s.ring) }

// Len returns the number of traces currently held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Dropped returns the number of traces evicted by ring wraparound.
func (s *Store) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Add appends a completed (or completing — see package doc) trace,
// evicting the oldest trace when the ring is full. Add must never be
// called with a cache-shard mutex held.
func (s *Store) Add(tr *Trace) {
	if tr == nil {
		return
	}
	s.mu.Lock()
	if s.n == len(s.ring) {
		s.dropped++
	} else {
		s.n++
	}
	s.ring[s.next] = tr
	s.next = (s.next + 1) % len(s.ring)
	s.mu.Unlock()
}

// snapshot copies the held trace pointers, most recently added first,
// and the eviction count at the same instant.
func (s *Store) snapshot() ([]*Trace, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Trace, s.n)
	for i := range out {
		out[i] = s.ring[(s.next-1-i+len(s.ring))%len(s.ring)]
	}
	return out, s.dropped
}

// SpanJSON is one span of the /debug/traces export. Offsets are
// milliseconds from the trace start so a reader can lay spans on a
// timeline without parsing timestamps.
type SpanJSON struct {
	SpanID     string         `json:"span_id"`
	ParentID   string         `json:"parent_span_id,omitempty"`
	Name       string         `json:"name"`
	StartMS    float64        `json:"start_ms"`
	DurationMS float64        `json:"duration_ms"`
	InFlight   bool           `json:"in_flight,omitempty"` // span not yet ended at export time
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// TraceJSON is one trace of the /debug/traces export.
type TraceJSON struct {
	TraceID string `json:"trace_id"`
	// RemoteParent is the inbound traceparent parent-id: the gateway
	// span this trace hangs under, when one exists.
	RemoteParent string     `json:"remote_parent_span_id,omitempty"`
	Sampled      bool       `json:"sampled"`
	Slow         bool       `json:"slow"`
	Start        time.Time  `json:"start"`
	DurationMS   float64    `json:"duration_ms"`
	Spans        []SpanJSON `json:"spans"`
}

// StoreJSON is the /debug/traces document.
type StoreJSON struct {
	Capacity int         `json:"capacity"`
	Stored   int         `json:"stored"`
	Dropped  uint64      `json:"dropped"`
	Traces   []TraceJSON `json:"traces"`
}

// Export snapshots the store into its JSON document form, the most
// recently added trace first. Each trace is snapshotted under its own mutex, so traces whose
// handler goroutines are still running (the TimeoutHandler tail) export
// a consistent prefix with in-flight spans flagged.
func (s *Store) Export() StoreJSON {
	trs, dropped := s.snapshot()
	doc := StoreJSON{
		Capacity: s.Capacity(),
		Stored:   len(trs),
		Dropped:  dropped,
		Traces:   make([]TraceJSON, 0, len(trs)),
	}
	for _, tr := range trs {
		doc.Traces = append(doc.Traces, tr.export())
	}
	return doc
}

// export renders one trace under its mutex.
func (t *Trace) export() TraceJSON {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceJSON{
		TraceID: t.id.String(),
		Sampled: t.sampled,
		Slow:    t.slow,
		Spans:   make([]SpanJSON, 0, len(t.spans)),
	}
	if !t.remote.IsZero() {
		out.RemoteParent = t.remote.String()
	}
	var start time.Time
	if len(t.spans) > 0 {
		start = t.spans[0].start
		out.Start = start
		if t.spans[0].done {
			out.DurationMS = toMS(t.spans[0].duration)
		} else {
			out.DurationMS = toMS(time.Since(start))
		}
	}
	for _, sp := range t.spans {
		j := SpanJSON{
			SpanID:     sp.id.String(),
			Name:       sp.name,
			StartMS:    toMS(sp.start.Sub(start)),
			DurationMS: toMS(sp.duration),
			InFlight:   !sp.done,
		}
		if !sp.done {
			j.DurationMS = toMS(time.Since(sp.start))
		}
		if !sp.parent.IsZero() {
			j.ParentID = sp.parent.String()
		}
		if len(sp.attrs) > 0 {
			j.Attrs = make(map[string]any, len(sp.attrs))
			for _, a := range sp.attrs {
				if a.IsS {
					j.Attrs[a.Key] = a.Str
				} else {
					j.Attrs[a.Key] = a.Int
				}
			}
		}
		out.Spans = append(out.Spans, j)
	}
	return out
}

// WriteJSON writes the export document to w — the /debug/traces body.
func (s *Store) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Export())
}

// toMS converts a duration to fractional milliseconds.
func toMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
