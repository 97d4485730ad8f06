package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// listenLoopback binds an ephemeral loopback port for an in-package
// server test.
func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestHTTPServerLimits pins the connection limits of the server serve
// listens with: both timeouts set, no write timeout, and a request
// whose headers exceed maxHeaderBytes refused with 431.
func TestHTTPServerLimits(t *testing.T) {
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	}))
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: want both > 0", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v: want 0 (series bodies stream; -timeout bounds handlers)", hs.WriteTimeout)
	}
	ln := listenLoopback(t)
	go hs.Serve(ln)
	defer hs.Close()

	// net/http reads up to MaxHeaderBytes plus 4 KiB of slack before it
	// refuses; pad past both.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pad := strings.Repeat("a", maxHeaderBytes+8<<10)
	// The server may stop reading once the limit is hit, so a write
	// error here is expected; the response is what counts.
	fmt.Fprintf(conn, "GET /v1/info HTTP/1.1\r\nHost: x\r\nX-Pad: %s\r\n\r\n", pad)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading response to an oversized header: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized header: status %d, want 431", resp.StatusCode)
	}

	// The request line counts toward the cap: the largest legitimate
	// one, a /v1/points query of 4096 locations at full float64
	// precision, is still served.
	resp, err = http.Get("http://" + ln.Addr().String() + largestPointsURL())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("4096-location /v1/points request line: status %d, want 200", resp.StatusCode)
	}
}

// largestPointsURL returns the path and query of a /v1/points request
// at the serve layer's 4096-location limit, every coordinate written
// with the 17 significant digits a float64 can need.
func largestPointsURL() string {
	const n = 4096
	lats := make([]string, n)
	lons := make([]string, n)
	for i := range n {
		lats[i] = strconv.FormatFloat(-89.123456789012345+float64(i)*0.0432101234567891, 'g', 17, 64)
		lons[i] = strconv.FormatFloat(0.123456789012345+float64(i)*0.0876543210987654, 'g', 17, 64)
	}
	return "/v1/points?lat=" + strings.Join(lats, ",") + "&lon=" + strings.Join(lons, ",") + "&t0=0&t1=1"
}

// TestServeUntilDrains pins the stop sequence: once ctx is cancelled
// the listener refuses new connections, a request already in its
// handler still completes, and serveUntil returns nil after it does.
func TestServeUntilDrains(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.Write([]byte("drained\n"))
	}))
	ln := listenLoopback(t)
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan error, 1)
	go func() { returned <- serveUntil(ctx, hs, ln) }()

	type result struct {
		status int
		body   string
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		inflight <- result{resp.StatusCode, string(body), err}
	}()
	<-entered
	released := false
	defer func() {
		if !released { // a check below failed: let the handler finish
			close(release)
		}
	}()
	cancel()

	// Shutdown closes the listener first; wait for that, bounded.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepts connections after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-returned:
		t.Fatalf("serveUntil returned %v while a request was in flight", err)
	default:
	}

	close(release)
	released = true
	r := <-inflight
	if r.err != nil || r.status != http.StatusOK || r.body != "drained\n" {
		t.Fatalf("in-flight request: status %d body %q err %v; want 200 %q", r.status, r.body, r.err, "drained\n")
	}
	if err := <-returned; err != nil {
		t.Fatalf("serveUntil after a complete drain: %v, want nil", err)
	}
}

// TestServeUntilClosesFreshConns pins that a stop does not wait on a
// connection that never sent a request: Shutdown alone would hold it as
// busy for 5 s. The connection is closed when the drain begins and
// serveUntil returns nil well before then.
func TestServeUntilClosesFreshConns(t *testing.T) {
	accepted := make(chan struct{}, 1)
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	hs.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted <- struct{}{}
		}
	}
	ln := listenLoopback(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan error, 1)
	go func() { returned <- serveUntil(ctx, hs, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-accepted // the server holds it in StateNew
	start := time.Now()
	cancel()
	select {
	case err := <-returned:
		if err != nil {
			t.Fatalf("serveUntil: %v, want nil", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("serveUntil still draining after 3 s: the request-less connection held it")
	}
	t.Logf("stopped in %v with a request-less connection open", time.Since(start))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("request-less connection after the stop: read %d bytes, err %v; want it closed", n, err)
	}
}
