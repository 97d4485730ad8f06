package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"exaclim"
)

// runServe fronts an archive (and optionally a trained model for live
// scenarios) with the concurrent HTTP query API:
//
//	exaclim serve -archive campaign.exa -addr :8080
//	exaclim serve -archive campaign.exa -load model.gob -live 2
//
// It listens on -addr and prints the bound address, so -addr
// 127.0.0.1:0 picks a free port. SIGINT or SIGTERM stops it: the
// listener closes, in-flight requests drain for up to drainTimeout,
// the archive closes, and the process exits 0 (non-zero when the drain
// misses its deadline).
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
		cacheMB   = fs.Int("cacheMB", 256, "field cache capacity in MiB: the live bytes of its float64 fields and kept response bodies; not a bound on process RSS, which the Go heap grows to about twice that")
		inflight  = fs.Int("max-inflight", 0, "cap on concurrently served requests; beyond it requests shed with 503 (0 = unlimited)")
		timeout   = fs.Duration("timeout", 0, "per-request handling timeout, e.g. 5s (0 = none)")
		pprofFlag = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (admin surface; keep off public listeners)")
		logReq    = fs.String("log-requests", "", "write one JSON line per request to this file ('-' = stdout)")
		traceRate = fs.Float64("trace-sample", 0, "fraction of requests traced head-sampled in [0,1]; sampled spans are kept in the in-memory trace store")
		slowMS    = fs.Int("slow-ms", 0, "capture and log any request slower than this many milliseconds, sampled or not (0 = off)")
		traceDbg  = fs.Bool("trace-debug", false, "mount the trace store on /debug/traces (admin surface; keep off public listeners)")
	)
	fs.Parse(args)

	r, err := exaclim.OpenArchive(*path)
	if err != nil {
		fatal(err)
	}
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

	// Catch the stop signals before the address is printed, so a
	// supervisor that signals on that line always gets a drain. Once
	// one arrives, a second gets the default action: exit at once.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	endpoints := "/v1/info /v1/field /v1/point /v1/points /v1/box /v1/stats /healthz /readyz /metrics"
	if *pprofFlag {
		endpoints += " /debug/pprof/"
	}
	if *traceDbg {
		endpoints += " /debug/traces"
	}
	fmt.Printf("listening on %s (endpoints: %s)\n", ln.Addr(), endpoints)
	err = serveUntil(ctx, newHTTPServer(srv.Handler()), ln)
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("stopped: in-flight requests drained")
}

// Connection limits of the one http.Server. WriteTimeout stays unset:
// -timeout already bounds each handler, and a long series body streams
// for as long as the client takes to read it.
const (
	// readHeaderTimeout frees a connection whose client never finishes
	// its request headers.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections left unused this long.
	idleTimeout = 2 * time.Minute
	// maxHeaderBytes caps the request line plus headers. Queries travel
	// in the URL, and a /v1/points request of 4096 full-precision
	// locations is about 200 KiB of it, so this stays at Go's 1 MiB.
	maxHeaderBytes = 1 << 20
	// drainTimeout bounds how long a stop signal waits for in-flight
	// requests before the process gives up and exits non-zero.
	drainTimeout = 30 * time.Second
)

// newHTTPServer wraps h in the server every serve run listens with.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// serveUntil serves hs on ln until ctx is done, then stops accepting
// and drains in-flight requests under drainTimeout. A connection that
// has not delivered a complete request when the drain begins is closed,
// like a dial after it; Shutdown would otherwise wait up to 5 s on each
// such connection, e.g. a client's spare pre-dialed one. serveUntil
// installs its own hs.ConnState that calls any hook already set. It
// returns nil after a complete drain, the drain's error when the
// deadline passes first, and Serve's error when serving fails before
// ctx is done.
func serveUntil(ctx context.Context, hs *http.Server, ln net.Listener) error {
	var (
		mu       sync.Mutex
		fresh    = map[net.Conn]bool{} // connections still in StateNew
		draining bool
	)
	hook := hs.ConnState
	hs.ConnState = func(c net.Conn, s http.ConnState) {
		mu.Lock()
		switch {
		case s != http.StateNew:
			delete(fresh, c)
		case draining:
			c.Close()
		default:
			fresh[c] = true
		}
		mu.Unlock()
		if hook != nil {
			hook(c, s)
		}
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	mu.Lock()
	draining = true
	for c := range fresh {
		c.Close()
	}
	mu.Unlock()
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := hs.Shutdown(drain)
	<-served // http.ErrServerClosed: Shutdown closed the listener first
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
