package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"exaclim"
	"exaclim/internal/obs"
)

// runServe fronts an archive (and optionally a trained model for live
// scenarios) with the concurrent HTTP query API:
//
//	exaclim serve -archive campaign.exa -addr :8080
//	exaclim serve -archive campaign.exa -load model.gob -live 2
//
// The -smoke mode is the CI load probe: it binds an ephemeral port,
// issues -smoke-n concurrent in-process requests for the given path,
// prints the first response and the server's cache/coalescing counters,
// and exits — one command proving the whole serve path end to end.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		path      = fs.String("archive", "campaign.exa", "archive file to serve")
		addr      = fs.String("addr", ":8080", "listen address")
		loadPath  = fs.String("load", "", "trained model serving live scenarios (optional)")
		live      = fs.Int("live", -1, "live emulated scenarios appended after the archive's (requires -load; -1 = 1 when -load is given (or len(-live-rf) pathways), else 0)")
		liveRF    = fs.String("live-rf", "", "JSON pathway file of what-if forcings; live scenario i emulates under pathway i (requires -load)")
		liveSteps = fs.Int("liveSteps", 0, "steps per live scenario (0 = archive steps)")
		liveT0    = fs.Int("liveT0", 0, "training-step offset of live step 0 (match the archive's -t0)")
		seed      = fs.Int64("seed", 1, "base seed for live member emulation")
		cacheMB   = fs.Int("cacheMB", 256, "field cache capacity in MiB (one cache behind both the JSON and the f32 format)")
		inflight  = fs.Int("max-inflight", 0, "cap on concurrently served requests; beyond it requests shed with 503 (0 = unlimited)")
		timeout   = fs.Duration("timeout", 0, "per-request handling timeout, e.g. 5s (0 = none)")
		metrics   = fs.Bool("metrics", true, "expose Prometheus text metrics on /metrics")
		pprofFlag = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (admin surface; keep off public listeners)")
		logReq    = fs.String("log-requests", "", "write one JSON line per request to this file ('-' = stdout)")
		traceRate = fs.Float64("trace-sample", 0, "fraction of requests traced head-sampled in [0,1]; sampled spans are kept in the in-memory trace store")
		slowMS    = fs.Int("slow-ms", 0, "capture and log any request slower than this many milliseconds, sampled or not (0 = off)")
		traceDbg  = fs.Bool("trace-debug", false, "mount the trace store on /debug/traces (admin surface; keep off public listeners)")
		smoke     = fs.String("smoke", "", "issue one-shot requests for this path (e.g. /v1/field?t=3), print, exit")
		smokeN    = fs.Int("smoke-n", 1, "concurrent requests issued in -smoke mode")
	)
	fs.Parse(args)

	r, err := exaclim.OpenArchive(*path)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	var model *exaclim.Model
	if *loadPath != "" {
		model = loadModel(*loadPath)
	}
	var livePathways []exaclim.Pathway
	if *liveRF != "" {
		set, err := exaclim.LoadPathwaySet(*liveRF)
		if err != nil {
			fatal(err)
		}
		livePathways = set.Pathways
		fmt.Printf("loaded %d what-if pathways from %s: %v\n", set.Len(), *liveRF, set.Names())
	}
	// -1 means "unset": default to the what-if pathway count, or one
	// live scenario when a model is loaded. An explicit -live 0 keeps
	// serving archive-only, which contradicts asking for what-if
	// pathways — reject the combination rather than silently ignoring
	// one flag.
	if *live == 0 && len(livePathways) > 0 {
		fatal(fmt.Errorf("-live 0 (archive-only) conflicts with -live-rf %s", *liveRF))
	}
	if *live < 0 {
		switch {
		case len(livePathways) > 0:
			*live = len(livePathways)
		case model != nil:
			*live = 1
		default:
			*live = 0
		}
	}
	var reqLog io.Writer
	if *logReq == "-" {
		reqLog = os.Stdout
	} else if *logReq != "" {
		f, err := os.OpenFile(*logReq, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		reqLog = f
	}
	srv, err := exaclim.NewServer(r, model, exaclim.ServeConfig{
		CacheBytes:         int64(*cacheMB) << 20,
		LiveScenarios:      *live,
		LiveSteps:          *liveSteps,
		LiveT0:             *liveT0,
		BaseSeed:           *seed,
		LivePathways:       livePathways,
		MaxInFlight:        *inflight,
		RequestTimeout:     *timeout,
		RequestLog:         reqLog,
		EnablePprof:        *pprofFlag,
		DisableMetrics:     !*metrics,
		TraceSampleRate:    *traceRate,
		SlowTraceThreshold: time.Duration(*slowMS) * time.Millisecond,
		EnableTraceDebug:   *traceDbg,
	})
	if err != nil {
		fatal(err)
	}
	h := r.Header()
	fmt.Printf("serving %s: grid %v, L=%d, %d members x %d scenarios (%d live) x %d steps\n",
		*path, h.Grid, h.L, h.Members, h.Scenarios, *live, h.Steps)

	if *smoke != "" {
		runServeSmoke(srv, *smoke, *smokeN, h.Steps)
		return
	}
	endpoints := "/v1/info /v1/field /v1/point /v1/box /v1/stats /healthz /readyz"
	if *metrics {
		endpoints += " /metrics"
	}
	if *pprofFlag {
		endpoints += " /debug/pprof/"
	}
	if *traceDbg {
		endpoints += " /debug/traces"
	}
	fmt.Printf("listening on %s (endpoints: %s)\n", *addr, endpoints)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		fatal(err)
	}
}

// runServeSmoke binds an ephemeral loopback port, fires n concurrent
// requests at the path, prints the first body (truncated) and the
// serving counters, then probes a multi-step /v1/points series (the
// batched chunk decode path) and the gzip/metrics surfaces, and returns.
func runServeSmoke(srv *exaclim.Server, path string, n, steps int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	if n < 1 {
		n = 1
	}
	url := "http://" + ln.Addr().String() + path
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			fatal(err)
		}
	}
	body := bodies[0]
	const maxShow = 512
	if len(body) > maxShow {
		fmt.Printf("%s... (%d bytes)\n", body[:maxShow], len(body))
	} else {
		fmt.Printf("%s", body)
	}
	st := srv.Stats()
	fmt.Printf("smoke: %d requests in %.3fs (%.0f req/s)\n", n, elapsed, float64(n)/elapsed)
	fmt.Printf("cache: %d loads, %d hits, %d coalesced, %d misses, %d entries (%.1f KB)\n",
		st.FieldLoads+st.LiveLoads, st.Cache.Hits, st.Cache.Coalesced, st.Cache.Misses,
		st.Cache.Entries, float64(st.Cache.Bytes)/1e3)

	// Gzip round-trip over the same listener: the compressed body must
	// decompress to exactly the identity body. The transport's own
	// decompression is disabled so the header and the gunzip are really
	// exercised, not silently handled by net/http.
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		fatal(fmt.Errorf("smoke gzip: %w", err))
	}
	compressed, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fatal(fmt.Errorf("smoke gzip: %w", err))
	}
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		fatal(fmt.Errorf("smoke gzip: Content-Encoding %q, want gzip", ce))
	}
	zr, err := gzip.NewReader(bytes.NewReader(compressed))
	if err != nil {
		fatal(fmt.Errorf("smoke gzip: %w", err))
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		fatal(fmt.Errorf("smoke gzip: %w", err))
	}
	if !bytes.Equal(plain, body) {
		fatal(fmt.Errorf("smoke gzip: decompressed body (%d bytes) differs from identity body (%d bytes)",
			len(plain), len(body)))
	}
	fmt.Printf("gzip: %d -> %d bytes (%.2fx)\n", len(body), len(compressed),
		float64(len(body))/float64(len(compressed)))

	// Multi-step series probe: a two-point /v1/points query spanning
	// several steps exercises the chunk-granular batch decode end to
	// end (ReadPackedBlocks under the series endpoints), whatever path
	// the -smoke flag asked for.
	t1 := steps
	if t1 > 12 {
		t1 = 12
	}
	seriesURL := fmt.Sprintf(
		"http://%s/v1/points?lat=12.5,-48&lon=30,210.5&t0=0&t1=%d", ln.Addr().String(), t1)
	resp0, err := http.Get(seriesURL)
	if err != nil {
		fatal(fmt.Errorf("smoke series: %w", err))
	}
	seriesBody, err := io.ReadAll(resp0.Body)
	resp0.Body.Close()
	if err != nil {
		fatal(fmt.Errorf("smoke series: %w", err))
	}
	if resp0.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("smoke series: %s: %s", resp0.Status, seriesBody))
	}
	var pts struct {
		Series [][]float64 `json:"series"`
	}
	if err := json.Unmarshal(seriesBody, &pts); err != nil {
		fatal(fmt.Errorf("smoke series: bad JSON: %w", err))
	}
	if len(pts.Series) != 2 {
		fatal(fmt.Errorf("smoke series: got %d series, want 2", len(pts.Series)))
	}
	for i, s := range pts.Series {
		if len(s) != t1 {
			fatal(fmt.Errorf("smoke series %d: got %d values, want %d", i, len(s), t1))
		}
	}
	ast := srv.Stats().Archive
	fmt.Printf("series: 2 points x %d steps ok (archive decodes %d, chunk amortized %d)\n",
		t1, ast.StepDecodes, ast.ChunkAmortized)

	// One-shot operator visibility: the full stats snapshot, then a
	// real scrape of /readyz and /metrics through the listener — the
	// same surfaces Prometheus and an orchestrator would hit — with the
	// exposition parsed and verified, not just fetched.
	stJSON, err := json.Marshal(st)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stats: %s\n", stJSON)
	base := "http://" + ln.Addr().String()
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		fatal(err)
	}
	ready, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("readyz: %d %s", resp.StatusCode, ready)
	if srv.Metrics() == nil {
		fmt.Println("metrics: disabled")
		return
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		fatal(err)
	}
	fams, err := obs.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		fatal(fmt.Errorf("smoke: /metrics exposition invalid: %w", err))
	}
	for _, name := range []string{
		"exaclim_http_requests_total", "exaclim_http_request_duration_seconds",
		"exaclim_requests_total", "exaclim_cache_hits_total",
		"exaclim_field_loads_total", "exaclim_goroutines",
	} {
		if fams[name] == nil {
			fatal(fmt.Errorf("smoke: /metrics missing family %s", name))
		}
	}
	if err := obs.CheckHistogram(fams["exaclim_http_request_duration_seconds"]); err != nil {
		fatal(fmt.Errorf("smoke: %w", err))
	}
	samples := 0
	for _, f := range fams {
		samples += len(f.Samples)
	}
	fmt.Printf("metrics: %d families, %d samples, exposition verified\n", len(fams), samples)

	// Per-stage latency attribution: the smoke requests above ran through
	// the instrumented handler, so the stage histogram must exist and
	// must have recorded at least the encode stage (every successful
	// response encodes). Print p50/p99 per stage from this server's own
	// exposition — the same numbers a dashboard would derive.
	stageFam := fams["exaclim_stage_duration_seconds"]
	if stageFam == nil {
		fatal(fmt.Errorf("smoke: /metrics missing family exaclim_stage_duration_seconds"))
	}
	if err := obs.CheckHistogram(stageFam); err != nil {
		fatal(fmt.Errorf("smoke: %w", err))
	}
	stages := map[string]bool{}
	for _, s := range stageFam.Samples {
		if st := s.Labels["stage"]; st != "" {
			stages[st] = true
		}
	}
	if !stages["encode"] {
		fatal(fmt.Errorf("smoke: stage histogram recorded no encode stage (stages seen: %v)", stages))
	}
	names := make([]string, 0, len(stages))
	for st := range stages {
		names = append(names, st)
	}
	sort.Strings(names)
	for _, st := range names {
		p50, err := obs.HistogramQuantile(stageFam, map[string]string{"stage": st}, 0.5)
		if err != nil {
			fatal(fmt.Errorf("smoke: stage %s p50: %w", st, err))
		}
		p99, err := obs.HistogramQuantile(stageFam, map[string]string{"stage": st}, 0.99)
		if err != nil {
			fatal(fmt.Errorf("smoke: stage %s p99: %w", st, err))
		}
		fmt.Printf("stage %-10s p50 %8.3fms  p99 %8.3fms\n", st, p50*1e3, p99*1e3)
	}
}
