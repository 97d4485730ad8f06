package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"exaclim"
)

// options are the command-line settings of one run.
type options struct {
	Seed   int64
	Window time.Duration // length of the measured window
	Trace  bool
	OutDir string
	// Warmup and SetupRepeats are fixed by the command line (warmupTime,
	// setupRepeats); tests shorten them.
	Warmup       time.Duration
	SetupRepeats int
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"` // the contract's metrics for this mode
	Extra     map[string]float64 `json:"extra"`   // row metrics, sample counts, diagnostics
}

func newResult(w *workload, opt options) *result {
	return &result{Workload: w.Name, Seed: opt.Seed, Seconds: opt.Window.Seconds(), Trace: opt.Trace,
		Metrics: map[string]float64{}, Extra: map[string]float64{}}
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// windowMode says what a window is for.
type windowMode int

const (
	modeWarm      windowMode = iota // closed loop whatever the row, nothing kept: it only fills caches
	modeReference                   // the row's loop, nothing kept for the oracle
	modeMeasured                    // the row's loop, oracle sampling on
)

// windowResult is one measured (or warm-up) window over all clients.
type windowResult struct {
	Samples   []sample
	Scheduled int
	Failed    int
	FirstErr  error
	Kept      []keptBody
	Summary   latencySummary
}

// runWindow drives the row's load for `window`: two clients, one
// keep-alive connection each, closed loop unless the row is open.
// Streams number the clients' request generators, so warm-up and
// measured windows draw from different streams of the same seed.
func runWindow(e *serveEnv, p pools, seed int64, firstStream uint64, window time.Duration, idPrefix string, mode windowMode) windowResult {
	w := e.Data.W
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := firstStream + uint64(c)
			cl := newClient(e)
			defer cl.close()
			g := newGenerator(w, e.Shape, p, seed, stream, mode == modeWarm)
			lc := loopConfig{Seed: seed, Stream: stream, Window: window, IDPrefix: idPrefix, Keep: mode == modeMeasured}
			if w.OpenRate > 0 && mode != modeWarm {
				results[c] = runOpenHTTP(cl, g, lc, w.OpenRate/clients)
			} else {
				results[c] = runClosed(cl, g, lc)
			}
		}(c)
	}
	wg.Wait()
	var out windowResult
	for _, r := range results {
		out.Samples = append(out.Samples, r.Samples...)
		out.Scheduled += r.Scheduled
		out.Failed += r.Failed
		out.Kept = append(out.Kept, r.Kept...)
		if out.FirstErr == nil {
			out.FirstErr = r.FirstErr
		}
	}
	out.Summary = summarize(out.Samples, window)
	return out
}

// Stream numbers: measured clients use 0 and 1.
const (
	warmStream = 100
	refStream  = 200 // traced run: the untraced reference window
)

// warm brings the server to its steady state. Rows with a hot set touch
// every hot field once per cache first (the JSON path fills the float64
// cache, format=f32 the float32 one), so the measured window starts with
// the whole hot set resident; then the row's own mix runs for the
// warm-up time and is discarded.
func warm(e *serveEnv, p pools, opt options, idPrefix string) error {
	if e.Data.W.Keys == keysZipfHot {
		cl := newClient(e)
		defer cl.close()
		for _, k := range p.Hot {
			for _, c := range []class{classFieldF32, classFieldJSON} {
				r := request{Class: c, Key: k}
				status, err := cl.do(r, "")
				if err == nil {
					err = cl.check(r, status)
				}
				if err != nil {
					return fmt.Errorf("warm hot set: %w", err)
				}
			}
		}
	}
	if wr := runWindow(e, p, opt.Seed, warmStream, opt.Warmup, idPrefix, modeWarm); wr.Failed > 0 {
		return fmt.Errorf("warm-up: %d requests failed, first: %w", wr.Failed, wr.FirstErr)
	}
	return nil
}

// setUp builds the row's data and starts its server `repeats` times,
// keeping the last; the median is the row's set-up time.
func setUp(w *workload, opt options, repeats int) (*serveEnv, float64, error) {
	var env *serveEnv
	var secs []float64
	for i := 0; i < repeats; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		d, err := buildRowData(w, opt.Seed, opt.OutDir)
		if err != nil {
			return nil, 0, err
		}
		if env, err = startServer(d, false); err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return env, median(secs), nil
}

// measure runs the measured window and folds failures, the open loop's
// validity rule and the oracle into res.
func measure(e *serveEnv, p pools, opt options, window time.Duration, idPrefix string, res *result) (windowResult, error) {
	wr := runWindow(e, p, opt.Seed, 0, window, idPrefix, modeMeasured)
	res.Attempted = len(wr.Samples)
	res.Failed = wr.Failed
	if wr.FirstErr != nil {
		res.problem("first failed request: %v", wr.FirstErr)
	}
	if w := e.Data.W; w.OpenRate > 0 {
		res.Attempted = wr.Scheduled
		if float64(wr.Summary.N) < 0.98*float64(wr.Scheduled) {
			// The generator or the server fell behind the schedule: the
			// latencies describe a different load than the row declares.
			res.Failed = res.Attempted
			res.problem("open loop completed %d of %d scheduled requests inside the window (< 98%%)", wr.Summary.N, wr.Scheduled)
		}
	}
	if res.Attempted == 0 {
		return wr, fmt.Errorf("no request completed")
	}
	o, err := newOracle(e)
	if err != nil {
		return wr, err
	}
	defer o.close()
	bad := 0
	for _, k := range wr.Kept {
		if err := o.verify(k); err != nil {
			if bad == 0 {
				res.problem("oracle: %s %s: %v", k.Req.Class, k.Req.URL(), err)
			}
			bad++
		}
	}
	res.Failed += bad
	res.Extra["oracle_checked"] = float64(len(wr.Kept))
	return wr, nil
}

// putEndToEnd stores the six contract metrics of a serving row.
func putEndToEnd(res *result, setupS float64, s latencySummary, wi writeInfo) {
	res.Metrics["setup_s"] = setupS
	res.Metrics["req_per_s"] = s.ReqPerS
	res.Metrics["lat_p50_ms"] = s.P50Ms
	res.Metrics["lat_p99_ms"] = s.P99Ms
	res.Metrics["stored_bytes_per_raw_byte"] = wi.storedPerRaw()
	res.Metrics["recon_rel_err"] = wi.Stats.MeanRelErr
	res.Extra["samples"] = float64(s.N)
	res.Extra["slices"] = float64(s.Slices)
	res.Extra["lat_p999_ms"] = s.P999Ms
}

// runServing is the untraced run of a serving row.
func runServing(w *workload, opt options) (*result, error) {
	res := newResult(w, opt)
	env, setupS, err := setUp(w, opt, opt.SetupRepeats)
	if err != nil {
		return nil, err
	}
	defer env.close()
	p := newPools(env.Shape, opt.Seed)
	if err := warm(env, p, opt, ""); err != nil {
		return nil, err
	}
	wr, err := measure(env, p, opt, opt.Window, "", res)
	if err != nil {
		return nil, err
	}
	putEndToEnd(res, setupS, wr.Summary, env.Data.Write)
	return res, nil
}

// runServingTraced is the traced run: an untraced reference window on a
// plain server first (its throughput is the base of the tracing
// overhead, its resource use the runtime.* numbers), then the same seed
// on a server with every observer on, then the layer probes.
func runServingTraced(w *workload, opt options) (*result, error) {
	res := newResult(w, opt)
	plain, _, err := setUp(w, opt, 1)
	if err != nil {
		return nil, err
	}
	data := plain.Data
	p := newPools(plain.Shape, opt.Seed)
	if err := warm(plain, p, opt, ""); err != nil {
		plain.close()
		return nil, err
	}
	refWindow := opt.Window / 3
	u0 := readUsage()
	ref := runWindow(plain, p, opt.Seed, refStream, refWindow, "", modeReference)
	u := readUsage().sub(u0)
	plain.close()
	if ref.Failed > 0 || len(ref.Samples) == 0 {
		return nil, fmt.Errorf("reference window: %d of %d requests failed, first: %w", ref.Failed, len(ref.Samples), ref.FirstErr)
	}
	m := res.Metrics
	u.put(m, float64(len(ref.Samples)))

	env, err := startServer(data, true)
	if err != nil {
		return nil, err
	}
	defer env.close()
	if err := warm(env, p, opt, "w"); err != nil {
		return nil, err
	}
	stages0, err := scrapeStages(env.Base)
	if err != nil {
		return nil, err
	}
	st0, io0 := env.Srv.Stats(), env.IO.snapshot()
	window := opt.Window - refWindow
	windowStart := sinceEpoch()
	wr, err := measure(env, p, opt, window, "m", res)
	if err != nil {
		return nil, err
	}
	stages1, err := scrapeStages(env.Base)
	if err != nil {
		return nil, err
	}
	st1, ioD := env.Srv.Stats(), env.IO.snapshot().sub(io0)
	stages := stages1.sub(stages0)

	// http.*: what the clients saw.
	p50, p99 := classLatencies(wr.Samples)
	for c := class(0); c < numClasses; c++ {
		m["http."+c.String()+".p50_ms"] = p50[c]
		m["http."+c.String()+".p99_ms"] = p99[c]
	}
	m["http.lat_p999_ms"] = wr.Summary.P999Ms
	m["http.late_share"] = wr.Summary.LateShare

	// serve.*: handler spans joined to the server's own request log.
	classByID := map[string]class{}
	for _, s := range wr.Samples {
		classByID[s.ID] = s.Class
	}
	env.Spans.mu.Lock()
	var spans []reqSpan
	var bytesOut, gzBytes, gzN, jsonBytes, jsonN float64
	for _, sp := range env.Spans.spans {
		c, ok := classByID[sp.ID]
		if !ok {
			continue // warm-up
		}
		spans = append(spans, sp)
		bytesOut += float64(sp.Bytes)
		switch c {
		case classFieldGzip:
			gzBytes, gzN = gzBytes+float64(sp.Bytes), gzN+1
		case classFieldJSON:
			jsonBytes, jsonN = jsonBytes+float64(sp.Bytes), jsonN+1
		}
	}
	env.Spans.mu.Unlock()
	lines, err := env.Log.lines("m")
	if err != nil {
		return nil, err
	}
	if len(spans) != len(wr.Samples) || len(lines) != len(wr.Samples) {
		res.problem("trace join: %d client samples, %d handler spans, %d request-log lines", len(wr.Samples), len(spans), len(lines))
	}
	at := attribute(spans, lines)
	m["serve.handler_s"] = at.HandlerS
	for _, st := range stageNames {
		m["serve.stage."+st+"_s"] = at.StageS[st]
		m["serve.stage."+st+"_count"] = stages.Count[st]
		// The request log and the /metrics histogram are two exports of
		// the same per-request stage times; they have to agree.
		if d := at.LogStageS[st] - stages.Sum[st]; d > 1e-6*(1+stages.Sum[st]) || -d > 1e-6*(1+stages.Sum[st]) {
			res.problem("stage %s: request log sums to %.6fs, /metrics histogram to %.6fs", st, at.LogStageS[st], stages.Sum[st])
		}
	}
	m["serve.unattributed_s"] = at.UnattributedS
	m["serve.unattributed_share"] = ratio(at.UnattributedS, at.HandlerS)
	if at.UnattributedS < 0 {
		res.problem("stages sum to more than the handler time: unattributed %.6fs", at.UnattributedS)
	}
	sent := 0.0
	for _, s := range wr.Samples {
		sent += s.Svc.Seconds()
	}
	m["http.transport_s"] = sent - at.HandlerS
	if m["http.transport_s"] < 0 {
		res.problem("handler spans exceed client latency: transport %.6fs", m["http.transport_s"])
	}
	n := float64(len(wr.Samples))
	m["serve.cache_f64.hit_ratio"] = hitRatio(st1.Cache, st0.Cache)
	m["serve.cache_f32.hit_ratio"] = hitRatio(st1.CacheF32, st0.CacheF32)
	m["serve.cache.evictions"] = float64(st1.Cache.Evictions + st1.CacheF32.Evictions - st0.Cache.Evictions - st0.CacheF32.Evictions)
	m["serve.cache.coalesced"] = float64(st1.Cache.Coalesced + st1.CacheF32.Coalesced - st0.Cache.Coalesced - st0.CacheF32.Coalesced)
	m["serve.cache.resident_bytes"] = float64(st1.Cache.Bytes + st1.CacheF32.Bytes)
	m["serve.evalcache.hit_ratio"] = ratio(float64(st1.Evals.Hits-st0.Evals.Hits), float64(st1.Evals.Hits-st0.Evals.Hits+st1.Evals.Misses-st0.Evals.Misses))
	m["serve.field_loads"] = float64(st1.FieldLoads - st0.FieldLoads)
	m["serve.live_loads"] = float64(st1.LiveLoads - st0.LiveLoads)
	m["serve.live_loads_per_req"] = m["serve.live_loads"] / n
	m["serve.bytes_out_per_req"] = bytesOut / n
	m["serve.gzip_ratio"] = ratio(ratio(gzBytes, gzN), ratio(jsonBytes, jsonN))

	// archive.*: the ReaderAt wrapper and the reader's counters.
	a1, a0 := st1.Archive, st0.Archive
	m["archive.io.read_calls"] = float64(ioD.Calls)
	m["archive.io.read_bytes"] = float64(ioD.Bytes)
	m["archive.io.read_s"] = ioD.Seconds
	m["archive.step_decodes"] = float64(a1.StepDecodes - a0.StepDecodes)
	m["archive.chunk_hit_ratio"] = ratio(float64(a1.ChunkHits-a0.ChunkHits), float64(a1.ChunkHits-a0.ChunkHits+a1.ChunkMisses-a0.ChunkMisses))
	m["archive.chunk_amortized"] = float64(a1.ChunkAmortized - a0.ChunkAmortized)
	m["archive.read_bytes_per_req"] = float64(a1.ReadBytes-a0.ReadBytes) / n
	putWriteSide(m, data.Write)

	m["obs.trace_overhead_share"] = 1 - wr.Summary.ReqPerS/ref.Summary.ReqPerS
	res.Extra["ref_req_per_s"] = ref.Summary.ReqPerS
	res.Extra["traced_req_per_s"] = wr.Summary.ReqPerS
	res.Extra["samples"] = float64(wr.Summary.N)

	if data.Live != nil {
		m["era5.generate_s"] = data.Live.GenSec
	}
	if err := probeLayers(m, env.Reader, data.Live, newGenerator(w, env.Shape, p, opt.Seed, 0, false)); err != nil {
		return nil, err
	}
	m["runtime.peak_rss_mb"] = peakRSSMB()
	if err := writeTrace(opt, w, spans, lines, env.IO.spansSince(windowStart)); err != nil {
		return nil, err
	}
	return res, nil
}

// putWriteSide stores the archive writer's numbers from set-up.
func putWriteSide(m map[string]float64, wi writeInfo) {
	perCall := wi.AddSec / float64(wi.Stats.Fields) * 1e6
	if wi.Packed {
		m["archive.add_packed_us"] = perCall
	} else {
		m["archive.add_field_us"] = perCall
	}
	m["archive.close_s"] = wi.CloseSec
	m["archive.bytes_per_field"] = wi.Stats.BytesPerField
	m["archive.max_rel_err"] = wi.Stats.MaxRelErr
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func hitRatio(now, before exaclim.ServeCacheStats) float64 {
	hits := float64(now.Hits - before.Hits)
	return ratio(hits, hits+float64(now.Misses-before.Misses)+float64(now.Coalesced-before.Coalesced))
}

// traceFile is the layout of out/<workload>.trace.json.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Requests []reqSpan `json:"requests"`
	Stages   []logLine `json:"request_log"`
	Reads    []ioSpan  `json:"chunk_reads"`
}

// writeTrace dumps the spans kept in memory during the traced window.
func writeTrace(opt options, w *workload, spans []reqSpan, lines []logLine, reads []ioSpan) error {
	tf := traceFile{Workload: w.Name, Seed: opt.Seed, Requests: spans, Stages: lines, Reads: reads}
	buf, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(opt.OutDir, w.Name+".trace.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// describe renders a one-line summary of the problems of a result.
func (r *result) describe() string { return strings.Join(r.Problems, "; ") }
