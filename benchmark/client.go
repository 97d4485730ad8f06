package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"strconv"
	"syscall"
	"time"
)

// sample is one completed request of the measured window.
type sample struct {
	End   time.Duration // completion, as an offset from the window start
	Lat   time.Duration // closed loop: send to last byte; open loop: due time to last byte
	Svc   time.Duration // send to last byte
	Class class
	Late  bool   // open loop: sent more than lateAfter after its due time
	ID    string // the request ID it carried (traced runs), else empty
}

// keptBody is a response kept for the oracle.
type keptBody struct {
	Req  request
	Body []byte
}

// clientResult is what one client goroutine brings back.
type clientResult struct {
	Samples   []sample
	Scheduled int // open loop: arrivals due inside the window
	Failed    int
	FirstErr  error
	Kept      []keptBody
}

// client is one keep-alive connection and its reusable body buffer.
type client struct {
	base   string
	http   *http.Client
	tr     *http.Transport
	buf    bytes.Buffer
	points int // grid points of a full field
}

func newClient(e *serveEnv) *client {
	tr := &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{base: e.Base, http: &http.Client{Transport: tr}, tr: tr, points: e.Grid.Points()}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole body into c.buf. id, when not
// empty, travels as the request ID (traced runs join on it).
func (c *client) do(r request, id string) (status int, err error) {
	req, err := http.NewRequest(http.MethodGet, c.base+r.URL(), nil)
	if err != nil {
		return 0, fmt.Errorf("build request: %w", err)
	}
	if r.gzip() {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, fmt.Errorf("send request: %w", err)
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, fmt.Errorf("read body: %w", err)
	}
	return resp.StatusCode, nil
}

// check is the inline test every response passes through: status,
// length and finiteness. It has to stay cheap — it runs between a
// client's requests — so JSON bodies are checked for framing and a
// floor on their length (a JSON number cannot be NaN or Inf: the
// server's encoder fails on one and the body comes back truncated);
// the oracle decodes the sampled ones in full after the window.
func (c *client) check(r request, status int) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.80s", r.Class, status, c.buf.Bytes())
	}
	body := c.buf.Bytes()
	steps := r.T1 - r.T0
	switch r.Class {
	case classFieldF32:
		if len(body) != 4*c.points {
			return fmt.Errorf("%s: %d bytes, want %d", r.Class, len(body), 4*c.points)
		}
		for i := 0; i < len(body); i += 4 {
			// Exponent all ones: Inf or NaN.
			if binary.LittleEndian.Uint32(body[i:])&0x7f800000 == 0x7f800000 {
				return fmt.Errorf("%s: value %d is not finite", r.Class, i/4)
			}
		}
		return nil
	case classFieldGzip:
		if len(body) < 1024 || body[0] != 0x1f || body[1] != 0x8b {
			return fmt.Errorf("%s: %d bytes, not a gzip stream", r.Class, len(body))
		}
		return nil
	case classFieldJSON, classLiveField:
		return jsonFramed(r.Class, body, 2*c.points)
	case classStats:
		return jsonFramed(r.Class, body, 4*c.points)
	case classPoints:
		return jsonFramed(r.Class, body, 2*steps*len(r.Locs))
	default: // point, box, live_point
		return jsonFramed(r.Class, body, 2*steps)
	}
}

func jsonFramed(c class, body []byte, minLen int) error {
	if len(body) < minLen || body[0] != '{' || !bytes.HasSuffix(body, []byte("}\n")) {
		return fmt.Errorf("%s: %d-byte body is not a complete JSON object of at least %d bytes", c, len(body), minLen)
	}
	return nil
}

// loopConfig is what a client loop needs besides its request stream.
type loopConfig struct {
	Seed   int64
	Stream uint64
	Window time.Duration
	// IDPrefix, when not empty, makes every request carry the ID
	// "<prefix><stream>-<n>" (traced runs).
	IDPrefix string
	// Keep turns oracle sampling on (off during warm-up).
	Keep bool
}

func (lc loopConfig) id(n int) string {
	if lc.IDPrefix == "" {
		return ""
	}
	return lc.IDPrefix + strconv.FormatUint(lc.Stream, 10) + "-" + strconv.Itoa(n)
}

// finish books one completed request: inline check, oracle sampling,
// sample record.
func (c *client) finish(res *clientResult, lc loopConfig, n int, r request, status int, err error, s sample, keptBytes *int) {
	if err == nil {
		err = c.check(r, status)
	}
	if err != nil {
		res.Failed++
		if res.FirstErr == nil {
			res.FirstErr = err
		}
	} else if lc.Keep && *keptBytes < keptBytesCap && sampled(lc.Seed, lc.Stream, n) {
		res.Kept = append(res.Kept, keptBody{Req: r, Body: bytes.Clone(c.buf.Bytes())})
		*keptBytes += c.buf.Len()
	}
	s.ID = lc.id(n)
	res.Samples = append(res.Samples, s)
}

// runClosed is the closed loop: the next request leaves when the
// previous answer has been read, until the window is over.
func runClosed(c *client, g *generator, lc loopConfig) clientResult {
	var res clientResult
	keptBytes := 0
	start := time.Now()
	for n := 0; ; n++ {
		sent := time.Since(start)
		if sent >= lc.Window {
			return res
		}
		r := g.next()
		status, err := c.do(r, lc.id(n))
		end := time.Since(start)
		c.finish(&res, lc, n, r, status, err, sample{End: end, Lat: end - sent, Svc: end - sent, Class: r.Class}, &keptBytes)
	}
}

// clock is the time source of the open loop; tests substitute a fake.
type clock interface {
	// Now is the time since the window started.
	Now() time.Duration
	// SleepUntil returns once Now() >= d.
	SleepUntil(d time.Duration)
}

type wallClock struct{ start time.Time }

func (w wallClock) Now() time.Duration { return time.Since(w.start) }

// SleepUntil blocks the thread in nanosleep(2) instead of parking the
// goroutine on a runtime timer: an idle Go scheduler waits for timers in
// epoll with millisecond resolution, which made every request of a
// lightly loaded open loop up to a millisecond late — the generator's
// lateness, booked as the server's latency.
func (w wallClock) SleepUntil(d time.Duration) {
	for wait := d - w.Now(); wait > 0; wait = d - w.Now() {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// openLoopOverrun is how long past the window an open loop keeps
// draining requests that were due inside it; what is still unsent then
// counts as failed.
const openLoopOverrun = 2 * time.Second

// runOpen is one connection of the open loop: requests are due at the
// arrival process's times whether or not the previous answer is back.
// A connection carries one request at a time, so a request that falls
// due while the previous one is in flight waits, and that wait is in
// its latency: latency runs from the due time. send issues request n
// and books it; runOpen only keeps the schedule.
func runOpen(clk clock, arr *arrivals, window time.Duration, send func(n int, due, sent time.Duration)) (scheduled, unsent int) {
	for n := 0; ; n++ {
		due := arr.next()
		if due >= window {
			return scheduled, unsent
		}
		scheduled++
		if clk.Now() > window+openLoopOverrun {
			unsent++
			continue
		}
		clk.SleepUntil(due)
		send(n, due, clk.Now())
	}
}

// openSample books an open-loop request that was due at `due`, left at
// `sent` and was answered at `end`.
func openSample(c class, due, sent, end time.Duration) sample {
	return sample{End: end, Lat: end - due, Svc: end - sent, Class: c, Late: sent-due > lateAfter}
}

// runOpenHTTP drives runOpen with real requests.
func runOpenHTTP(c *client, g *generator, lc loopConfig, rate float64) clientResult {
	var res clientResult
	keptBytes := 0
	clk := wallClock{time.Now()}
	var unsent int
	res.Scheduled, unsent = runOpen(clk, newArrivals(lc.Seed, lc.Stream, rate), lc.Window, func(n int, due, sent time.Duration) {
		r := g.next()
		status, err := c.do(r, lc.id(n))
		c.finish(&res, lc, n, r, status, err, openSample(r.Class, due, sent, clk.Now()), &keptBytes)
	})
	res.Failed += unsent
	return res
}
