package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"exaclim/internal/obs"
)

// The traced run observes the program from outside: a span recorder
// around Server.Handler(), a timing io.ReaderAt under the archive
// reader, the server's own request log kept in memory, and a scrape of
// its /metrics. Spans inside the program are a later issue.

// epoch is the zero of every span timestamp in this process.
var epoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// reqSpan is one request as the handler wrapper saw it.
type reqSpan struct {
	ID    string `json:"id"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Bytes int64  `json:"bytes_out"`
}

// spanHandler records one span per request around the server's handler.
type spanHandler struct {
	next  http.Handler
	mu    sync.Mutex
	spans []reqSpan
}

// countingWriter counts the body bytes the server writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(requestIDHeader)
	if id == "" { // the /metrics scrape, not a generated request
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := sinceEpoch()
	h.next.ServeHTTP(cw, r)
	sp := reqSpan{ID: id, Start: start, End: sinceEpoch(), Bytes: cw.n}
	h.mu.Lock()
	h.spans = append(h.spans, sp)
	h.mu.Unlock()
}

// requestIDHeader is the header the server honors as the request ID.
const requestIDHeader = "X-Request-ID"

// ioSpan is one chunk read as the ReaderAt wrapper saw it.
type ioSpan struct {
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	Off   int64 `json:"offset"`
	Bytes int   `json:"bytes"`
}

// tracedReaderAt times every read the archive reader issues.
type tracedReaderAt struct {
	ra    io.ReaderAt
	calls atomic.Int64
	bytes atomic.Int64
	ns    atomic.Int64
	mu    sync.Mutex
	spans []ioSpan
}

func (t *tracedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	start := sinceEpoch()
	n, err := t.ra.ReadAt(p, off)
	end := sinceEpoch()
	t.calls.Add(1)
	t.bytes.Add(int64(n))
	t.ns.Add(end - start)
	t.mu.Lock()
	t.spans = append(t.spans, ioSpan{Start: start, End: end, Off: off, Bytes: n})
	t.mu.Unlock()
	return n, err
}

// spansSince returns the reads that started at or after t (ns since epoch).
func (t *tracedReaderAt) spansSince(start int64) []ioSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []ioSpan
	for _, sp := range t.spans {
		if sp.Start >= start {
			out = append(out, sp)
		}
	}
	return out
}

// ioCounters is a snapshot of a tracedReaderAt.
type ioCounters struct {
	Calls, Bytes int64
	Seconds      float64
}

func (t *tracedReaderAt) snapshot() ioCounters {
	return ioCounters{Calls: t.calls.Load(), Bytes: t.bytes.Load(), Seconds: float64(t.ns.Load()) / 1e9}
}

func (c ioCounters) sub(o ioCounters) ioCounters {
	return ioCounters{c.Calls - o.Calls, c.Bytes - o.Bytes, c.Seconds - o.Seconds}
}

// logSink keeps the server's JSON request log in memory. The server
// serializes its writes, the mutex is for the reader at the end.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// logLine is the part of the server's request-log schema the
// attribution uses or the trace file keeps.
type logLine struct {
	ID      string             `json:"id"`
	Path    string             `json:"path"`
	Status  int                `json:"status"`
	Dur     float64            `json:"duration_ms"`
	StageMs map[string]float64 `json:"stage_ms"`
}

// lines parses the log lines whose request ID starts with prefix.
func (s *logSink) lines(prefix string) ([]logLine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []logLine
	dec := json.NewDecoder(bytes.NewReader(s.buf.Bytes()))
	for dec.More() {
		var l logLine
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("parse request log: %w", err)
		}
		if strings.HasPrefix(l.ID, prefix) {
			out = append(out, l)
		}
	}
	return out, nil
}

// stageTotals is the per-stage sum and count of the server's
// exaclim_stage_duration_seconds histogram.
type stageTotals struct {
	Sum   map[string]float64
	Count map[string]float64
}

func (a stageTotals) sub(b stageTotals) stageTotals {
	d := stageTotals{Sum: map[string]float64{}, Count: map[string]float64{}}
	for _, st := range stageNames {
		d.Sum[st] = a.Sum[st] - b.Sum[st]
		d.Count[st] = a.Count[st] - b.Count[st]
	}
	return d
}

const stageFamily = "exaclim_stage_duration_seconds"

// scrapeStages fetches /metrics over HTTP, parses it with the repo's own
// exposition parser and checks the stage histogram's invariants before
// reading its sums. A server that has served nothing yet has no stage
// series; that scrape returns zero totals.
func scrapeStages(base string) (stageTotals, error) {
	tot := stageTotals{Sum: map[string]float64{}, Count: map[string]float64{}}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return tot, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tot, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		return tot, fmt.Errorf("parse /metrics: %w", err)
	}
	fam := fams[stageFamily]
	if fam == nil || len(fam.Samples) == 0 {
		return tot, nil
	}
	if err := obs.CheckHistogram(fam); err != nil {
		return tot, fmt.Errorf("stage histogram: %w", err)
	}
	for _, s := range fam.Samples {
		switch s.Name {
		case stageFamily + "_sum":
			tot.Sum[s.Labels["stage"]] = s.Value
		case stageFamily + "_count":
			tot.Count[s.Labels["stage"]] = s.Value
		}
	}
	return tot, nil
}

// attribution is the server-side breakdown of the traced window.
type attribution struct {
	HandlerS      float64            // summed wrapper spans
	StageS        map[string]float64 // self time per stage
	UnattributedS float64            // HandlerS - sum of StageS
	LogStageS     map[string]float64 // inclusive per-stage sums from the request log
}

// attribute splits the handler time of the window's requests into the
// server's stages, using the per-request stage times of the request
// log. Every stage but `cache` is a leaf. `cache` brackets the
// field-cache lookup including the load a miss runs, so its self time
// is its total minus the stages nested in it: synthesis, emulate,
// cache_wait always, and decode on requests that went through the
// field cache (series endpoints decode outside it and report no cache
// time). No class here takes the live f32 path, where the server nests
// two cache spans and adds both to `cache`.
func attribute(spans []reqSpan, lines []logLine) attribution {
	a := attribution{StageS: map[string]float64{}, LogStageS: map[string]float64{}}
	for _, sp := range spans {
		a.HandlerS += float64(sp.End-sp.Start) / 1e9
	}
	for _, l := range lines {
		ms := l.StageMs
		for st, v := range ms {
			a.LogStageS[st] += v / 1e3
		}
		for _, st := range []string{"cache_wait", "synthesis", "eval", "emulate", "encode", "decode"} {
			a.StageS[st] += ms[st] / 1e3
		}
		if ms["cache"] > 0 {
			nested := ms["synthesis"] + ms["emulate"] + ms["cache_wait"] + ms["decode"]
			a.StageS["cache"] += (ms["cache"] - nested) / 1e3
		}
	}
	sum := 0.0
	for _, st := range stageNames {
		sum += a.StageS[st]
	}
	a.UnattributedS = a.HandlerS - sum
	return a
}
