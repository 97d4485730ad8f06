package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDs(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("NewTraceID returned the zero id")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s after %d draws", id, i)
		}
		seen[id] = true
	}
	if got := NewTraceID().String(); len(got) != 32 {
		t.Fatalf("TraceID.String() = %q, want 32 hex digits", got)
	}
	if got := newSpanID().String(); len(got) != 16 {
		t.Fatalf("SpanID.String() = %q, want 16 hex digits", got)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("nil.Child must return nil")
	}
	c.End()
	c.EndAggregate(time.Now(), time.Second)
	c.SetAttr("k", 1)
	c.SetAttrString("k", "v")
	if !c.TraceID().IsZero() || !c.SpanID().IsZero() {
		t.Fatal("nil span ids must be zero")
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if ctx != context.Background() {
		t.Fatal("ContextWithSpan(nil) must not allocate a new context")
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on bare context must be nil")
	}
}

// TestNilSpanZeroAlloc pins the unsampled fast path: operating on a nil
// span through a context allocates nothing. This is the "unsampled
// requests cost near zero" acceptance bar at the trace layer.
func TestNilSpanZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := FromContext(ctx)
		c := sp.Child("decode")
		c.SetAttr("steps", 12)
		c.End()
		ContextWithSpan(ctx, c)
	})
	if allocs != 0 {
		t.Fatalf("nil-span path allocates %v per op, want 0", allocs)
	}
}

func TestSpanTree(t *testing.T) {
	tr, root := New("GET /v1/field", Options{Sampled: true})
	cache := root.Child("cache")
	dec := cache.Child("decode")
	dec.SetAttr("bytes", 4096)
	dec.End()
	syn := cache.Child("synthesis")
	syn.End()
	cache.End()
	enc := root.Child("encode")
	enc.SetAttrString("codec", "gzip")
	enc.End()
	root.End()

	doc := tr.export()
	if doc.TraceID != tr.ID().String() || !doc.Sampled || doc.Slow {
		t.Fatalf("trace header wrong: %+v", doc)
	}
	if len(doc.Spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(doc.Spans))
	}
	byID := map[string]SpanJSON{}
	byName := map[string]SpanJSON{}
	for _, s := range doc.Spans {
		byID[s.SpanID] = s
		byName[s.Name] = s
		if s.InFlight {
			t.Fatalf("span %s still in flight after End", s.Name)
		}
	}
	if byName["decode"].ParentID != byName["cache"].SpanID {
		t.Fatal("decode must parent to cache")
	}
	if byName["cache"].ParentID != byName["GET /v1/field"].SpanID {
		t.Fatal("cache must parent to root")
	}
	if byName["GET /v1/field"].ParentID != "" {
		t.Fatal("locally rooted trace must have no root parent")
	}
	if got := byName["decode"].Attrs["bytes"]; got != int64(4096) {
		t.Fatalf("decode bytes attr = %v (%T)", got, got)
	}
	if got := byName["encode"].Attrs["codec"]; got != "gzip" {
		t.Fatalf("encode codec attr = %v", got)
	}
	for _, s := range doc.Spans {
		if s.ParentID == "" {
			continue
		}
		if _, ok := byID[s.ParentID]; !ok {
			t.Fatalf("span %s parent %s not in trace", s.Name, s.ParentID)
		}
	}
}

func TestEndAggregate(t *testing.T) {
	tr, root := New("r", Options{Sampled: true})
	start := time.Now().Add(-50 * time.Millisecond)
	sp := root.Child("decode")
	sp.EndAggregate(start, 40*time.Millisecond)
	sp.End() // later End must not overwrite the aggregate
	root.End()
	doc := tr.export()
	for _, s := range doc.Spans {
		if s.Name != "decode" {
			continue
		}
		if s.DurationMS < 39.9 || s.DurationMS > 40.1 {
			t.Fatalf("aggregate duration %v ms, want 40", s.DurationMS)
		}
		return
	}
	t.Fatal("decode span missing")
}

func TestSampler(t *testing.T) {
	if NewSampler(0).Sample(NewTraceID()) {
		t.Fatal("rate 0 must never sample")
	}
	if !NewSampler(1).Sample(NewTraceID()) {
		t.Fatal("rate 1 must always sample")
	}
	s := NewSampler(0.25)
	id := NewTraceID()
	first := s.Sample(id)
	for i := 0; i < 100; i++ {
		if s.Sample(id) != first {
			t.Fatal("sampler must be deterministic per trace id")
		}
	}
	kept := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Sample(NewTraceID()) {
			kept++
		}
	}
	frac := float64(kept) / n
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("rate 0.25 sampler kept %.3f of traces", frac)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id, parent := NewTraceID(), newSpanID()
	h := FormatTraceparent(id, parent, FlagSampled)
	gid, gparent, flags, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if gid != id || gparent != parent || flags != FlagSampled {
		t.Fatalf("round trip mismatch: %v %v %v", gid, gparent, flags)
	}

	const ref = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	gid, gparent, flags, err = ParseTraceparent(ref)
	if err != nil {
		t.Fatalf("spec example rejected: %v", err)
	}
	if gid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" ||
		gparent.String() != "00f067aa0ba902b7" || flags != 0x01 {
		t.Fatalf("spec example parsed wrong: %v %v %v", gid, gparent, flags)
	}
	if FormatTraceparent(gid, gparent, flags) != ref {
		t.Fatal("format does not reproduce the spec example")
	}
	// Uppercase hex and future versions parse; garbage does not.
	if _, _, _, err := ParseTraceparent("00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01"); err != nil {
		t.Fatalf("uppercase hex rejected: %v", err)
	}
	if _, _, _, err := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); err != nil {
		t.Fatalf("future version with suffix rejected: %v", err)
	}
	for _, bad := range []string{
		"",
		"00",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    // version ff invalid
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",    // zero trace-id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",    // zero parent
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x",  // version 00 with suffix
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",    // bad hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    // bad separator
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01.99", // future version, no dash after prefix
	} {
		if _, _, _, err := ParseTraceparentNoInline(bad); err == nil {
			t.Fatalf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

// ParseTraceparentNoInline defeats inlining so the alloc test below
// measures the real call.
//
//go:noinline
func ParseTraceparentNoInline(h string) (TraceID, SpanID, byte, error) {
	return ParseTraceparent(h)
}

func TestParseTraceparentZeroAlloc(t *testing.T) {
	const ref = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, _, err := ParseTraceparent(ref); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseTraceparent allocates %v per call, want 0", allocs)
	}
}

// TestStoreRing pins the ring's eviction order: after 3 x cap
// sequential appends the export holds exactly the last cap traces, the
// most recent first, and the other 2 x cap were dropped — whatever their
// trace IDs hash to.
func TestStoreRing(t *testing.T) {
	const capacity = 16
	s := NewStore(capacity)
	for i := 0; i < 3*capacity; i++ {
		tr, root := New(fmt.Sprintf("r%d", i), Options{Sampled: true})
		root.End()
		s.Add(tr)
	}
	doc := s.Export()
	if doc.Capacity != capacity || doc.Stored != capacity || len(doc.Traces) != capacity || s.Len() != capacity {
		t.Fatalf("capacity %d, stored %d, exported %d, Len %d; want %d of each", doc.Capacity, doc.Stored, len(doc.Traces), s.Len(), capacity)
	}
	for i, tr := range doc.Traces {
		if want := fmt.Sprintf("r%d", 3*capacity-1-i); tr.Spans[0].Name != want {
			t.Fatalf("export[%d] is %s, want %s", i, tr.Spans[0].Name, want)
		}
	}
	if got := s.Dropped(); got != 2*capacity || doc.Dropped != 2*capacity {
		t.Fatalf("dropped %d (export %d), want %d", got, doc.Dropped, 2*capacity)
	}
}

// TestStoreHammer races trace building, store appends and JSON exports
// under -race, then verifies exact span counts once the dust settles.
func TestStoreHammer(t *testing.T) {
	const (
		workers        = 8
		tracesPerG     = 40
		spansPerTrace  = 6
		scrapesPerLoop = 4
	)
	s := NewStore(workers * tracesPerG)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < scrapesPerLoop; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				if err := s.WriteJSON(&buf); err != nil {
					t.Error(err)
					return
				}
				var doc StoreJSON
				if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
					t.Errorf("export is not valid JSON: %v", err)
					return
				}
			}
		}()
	}
	var build sync.WaitGroup
	for g := 0; g < workers; g++ {
		build.Add(1)
		go func(g int) {
			defer build.Done()
			for i := 0; i < tracesPerG; i++ {
				tr, root := New("req", Options{Sampled: true})
				s.Add(tr) // publish early: exports race span building, like TimeoutHandler tails
				var inner sync.WaitGroup
				for k := 0; k < spansPerTrace-1; k++ {
					inner.Add(1)
					go func(k int) {
						defer inner.Done()
						sp := root.Child("stage")
						sp.SetAttr("k", int64(k))
						sp.End()
					}(k)
				}
				inner.Wait()
				root.End()
			}
		}(g)
	}
	build.Wait()
	close(stop)
	wg.Wait()

	if got := s.Len(); got != workers*tracesPerG {
		t.Fatalf("stored %d traces, want %d", got, workers*tracesPerG)
	}
	if got := s.Dropped(); got != 0 {
		t.Fatalf("dropped %d traces from a store of exactly their number", got)
	}
	doc := s.Export()
	for _, tr := range doc.Traces {
		if len(tr.Spans) != spansPerTrace {
			t.Fatalf("trace %s has %d spans, want %d", tr.TraceID, len(tr.Spans), spansPerTrace)
		}
		for _, sp := range tr.Spans {
			if sp.InFlight {
				t.Fatalf("span %s still in flight after join", sp.SpanID)
			}
		}
	}
	if !strings.Contains(fmt.Sprint(doc.Traces[0].Spans[0].Name), "req") &&
		doc.Traces[0].Spans[0].Name != "stage" {
		t.Fatalf("unexpected span name %q", doc.Traces[0].Spans[0].Name)
	}
}
