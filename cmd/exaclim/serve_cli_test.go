package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"exaclim"
	"exaclim/internal/obs"
	"exaclim/internal/obs/trace"
)

// startServe starts `bin serve -addr 127.0.0.1:0 args...`, reads the
// bound address from its "listening on" line, waits until /readyz
// answers 200, and returns the base URL and a stop function. stop sends
// SIGTERM, waits for the process to exit, and returns its exit code and
// everything it wrote to stdout and stderr. Output is drained the whole
// time: -log-requests - writes a line per request, and a full pipe would
// block the server.
func startServe(t *testing.T, bin string, args ...string) (base string, stop func() (int, string)) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var (
		mu  sync.Mutex
		out strings.Builder
	)
	output := func() string {
		mu.Lock()
		defer mu.Unlock()
		return out.String()
	}
	addr := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		br := bufio.NewReader(pipe)
		for {
			line, err := br.ReadString('\n')
			mu.Lock()
			out.WriteString(line)
			mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
			if err != nil {
				return
			}
		}
	}()
	stopped := false
	t.Cleanup(func() {
		if !stopped {
			cmd.Process.Kill()
			<-drained
			cmd.Wait()
		}
	})
	stop = func() (int, string) {
		t.Helper()
		stopped = true
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("signalling serve: %v", err)
		}
		<-drained
		var exit *exec.ExitError
		if err := cmd.Wait(); err != nil && !errors.As(err, &exit) {
			t.Fatalf("waiting for serve: %v", err)
		}
		return cmd.ProcessState.ExitCode(), output()
	}

	select {
	case a := <-addr:
		base = "http://" + a
	case <-drained:
		t.Fatalf("serve exited before listening:\n%s", output())
	case <-time.After(time.Minute):
		t.Fatalf("serve printed no listening address within a minute:\n%s", output())
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		_, _, err := fetch(base + "/readyz")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never became ready (last: %v):\n%s", err, output())
		}
		time.Sleep(20 * time.Millisecond)
	}
	return base, stop
}

// stopServe stops a server from startServe and checks the stop: exit
// status 0, the drain line and every want in the output, and the port
// refusing connections afterwards. It returns the output.
func stopServe(t *testing.T, base string, stop func() (int, string), wants ...string) string {
	t.Helper()
	// A pre-dialed connection that never sends a request, as a client
	// or load balancer keeps spare, must not hold up the stop
	// (Shutdown alone waits 5 s on one).
	addr := strings.TrimPrefix(base, "http://")
	spare, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer spare.Close()
	start := time.Now()
	code, out := stop()
	if code != 0 {
		t.Fatalf("serve exited %d after SIGTERM, want 0:\n%s", code, out)
	}
	if took := time.Since(start); took > 4*time.Second {
		t.Fatalf("stop took %v with a request-less connection open, want < 4 s", took)
	}
	expect(t, "serve", out, append(wants, "stopped: in-flight requests drained")...)
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatalf("%s still accepts connections after serve exited", base)
	}
	return out
}

// serveClient leaves compression to the test: a request without
// Accept-Encoding gets the identity body, one that asks for gzip gets
// the compressed bytes, never transparently decompressed.
var serveClient = &http.Client{
	Transport: &http.Transport{DisableCompression: true},
	Timeout:   time.Minute,
}

// fetch GETs url with the given header name/value pairs and returns the
// response and its body; a transport failure or a status other than 200
// is an error.
func fetch(url string, header ...string) (*http.Response, []byte, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := serveClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		if len(url) > 120 { // a 4096-location query would flood the log
			url = url[:120] + "…"
		}
		err = fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return resp, body, err
}

func mustFetch(t *testing.T, url string, header ...string) (*http.Response, []byte) {
	t.Helper()
	resp, body, err := fetch(url, header...)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	_, body := mustFetch(t, url)
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
	}
}

// gzipRoundTrip fetches url twice, plain and with Accept-Encoding gzip,
// checks that the compressed body decompresses to the plain body byte
// for byte, and returns the plain body.
func gzipRoundTrip(t *testing.T, url string) []byte {
	t.Helper()
	_, plain := mustFetch(t, url)
	resp, compressed := mustFetch(t, url, "Accept-Encoding", "gzip")
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("GET %s with gzip: Content-Encoding %q", url, ce)
	}
	zr, err := gzip.NewReader(bytes.NewReader(compressed))
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if !bytes.Equal(unzipped, plain) {
		t.Fatalf("GET %s: gunzipped body (%d bytes) differs from the identity body (%d bytes)",
			url, len(unzipped), len(plain))
	}
	return plain
}

// checkField decodes a /v1/field JSON body and checks that it is the
// requested field with a full grid of values.
func checkField(t *testing.T, body []byte, member, scenario, step int) exaclim.FieldResponse {
	t.Helper()
	var f exaclim.FieldResponse
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatalf("field: bad JSON: %v", err)
	}
	if f.Member != member || f.Scenario != scenario || f.T != step || len(f.Data) == 0 || len(f.Data) != f.NLat*f.NLon {
		t.Fatalf("field: member %d scenario %d t %d, %d values for %dx%d; want member %d scenario %d t %d",
			f.Member, f.Scenario, f.T, len(f.Data), f.NLat, f.NLon, member, scenario, step)
	}
	return f
}

// checkServe runs the archive-only configuration with the request log on
// stdout and every request traced, and checks each surface over HTTP: a
// concurrent point burst, both field formats through gzip, a two-point
// series, trace propagation and the trace store, the /metrics
// exposition, one log line per request, and a clean stop. arch holds 2
// members x 1 scenario x 12 steps.
func checkServe(t *testing.T, bin, arch string) {
	t.Helper()
	base, stop := startServe(t, bin, "-archive", arch,
		"-log-requests", "-", "-trace-sample", "1", "-trace-debug")
	requests := 0 // /v1 requests sent, each owed one log line

	// A burst of one point series: all 200, all the same bytes.
	const burst = 32
	pointURL := base + "/v1/point?lat=30&lon=100&member=1&t0=0&t1=12"
	bodies := make([][]byte, burst)
	errs := make([]error, burst)
	var wg sync.WaitGroup
	for i := range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, bodies[i], errs[i] = fetch(pointURL)
		}()
	}
	wg.Wait()
	requests += burst
	for i := range burst {
		if errs[i] != nil {
			t.Fatalf("burst request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("burst body %d differs from body 0:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	var pt exaclim.SeriesResponse
	if err := json.Unmarshal(bodies[0], &pt); err != nil || pt.Member != 1 || len(pt.Values) != 12 {
		t.Fatalf("point series: member %d, %d values (err %v), want member 1, 12 values", pt.Member, len(pt.Values), err)
	}

	// One field in both formats, each gzip round-tripped; f32 is the
	// JSON data narrowed value by value.
	fieldURL := base + "/v1/field?member=0&scenario=0&t=3"
	jsonBody := gzipRoundTrip(t, fieldURL)
	f32Body := gzipRoundTrip(t, fieldURL+"&format=f32")
	requests += 4
	f := checkField(t, jsonBody, 0, 0, 3)
	if len(f32Body) != 4*len(f.Data) {
		t.Fatalf("f32 field: %d bytes, want %d", len(f32Body), 4*len(f.Data))
	}
	for i, v := range f.Data {
		if got := math.Float32frombits(binary.LittleEndian.Uint32(f32Body[4*i:])); got != float32(v) {
			t.Fatalf("f32 field value %d: %v, want float32(%v)", i, got, v)
		}
	}

	// Two locations x 12 steps on the batched series path.
	var pts struct {
		Series [][]float64 `json:"series"`
	}
	getJSON(t, base+"/v1/points?lat=12.5,-48&lon=30,210.5&t0=0&t1=12", &pts)
	requests++
	if len(pts.Series) != 2 || len(pts.Series[0]) != 12 || len(pts.Series[1]) != 12 {
		t.Fatalf("points: got %d series, want 2 x 12 values: %v", len(pts.Series), pts.Series)
	}
	// The largest batch the serve layer takes, every coordinate at full
	// precision: its request line fits the server's header cap.
	getJSON(t, base+largestPointsURL(), &pts)
	requests++
	if len(pts.Series) != 4096 || len(pts.Series[4095]) != 1 {
		t.Fatalf("4096-location points: got %d series, want 4096 x 1 value", len(pts.Series))
	}

	// An inbound W3C traceparent: the response carries the same trace
	// ID with the sampled flag, and the stored trace hangs under the
	// caller's span.
	const traceID, parentID = "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"
	resp, _ := mustFetch(t, base+"/v1/point?lat=30&lon=100&t0=0&t1=12",
		"Traceparent", "00-"+traceID+"-"+parentID+"-01")
	requests++
	if tp := resp.Header.Get("Traceparent"); !strings.HasPrefix(tp, "00-"+traceID+"-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("Traceparent echoed as %q, want 00-%s-<span>-01", tp, traceID)
	}
	checkTraceStore(t, base, traceID, parentID)
	checkMetrics(t, base)

	out := stopServe(t, base, stop, "(0 live)")
	logged := 0
	for _, line := range strings.Split(out, "\n") {
		var l struct {
			Path   string `json:"path"`
			Status int    `json:"status"`
		}
		if json.Unmarshal([]byte(line), &l) == nil && strings.HasPrefix(l.Path, "/v1/") {
			if l.Status != http.StatusOK {
				t.Errorf("request log line with status %d: %s", l.Status, line)
			}
			logged++
		}
	}
	if logged != requests {
		t.Fatalf("request log has %d lines for %d requests:\n%s", logged, requests, out)
	}
}

// checkTraceStore reads /debug/traces and checks the document's keys
// and the trace started by an inbound traceparent: remote parent and
// sampled flag kept, the serving stages present as spans, none of them
// still in flight.
func checkTraceStore(t *testing.T, base, traceID, parentID string) {
	t.Helper()
	_, body := mustFetch(t, base+"/debug/traces")
	var keys map[string]json.RawMessage
	var doc trace.StoreJSON
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatalf("/debug/traces: bad JSON: %v", err)
	}
	for _, k := range []string{"capacity", "stored", "traces"} {
		if keys[k] == nil {
			t.Fatalf("/debug/traces has no %q key", k)
		}
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/traces: %v", err)
	}
	if doc.Stored < 1 {
		t.Fatalf("/debug/traces stored %d traces after sampled requests", doc.Stored)
	}
	var tr *trace.TraceJSON
	for i := range doc.Traces {
		if doc.Traces[i].TraceID == traceID {
			tr = &doc.Traces[i]
		}
	}
	if tr == nil {
		t.Fatalf("/debug/traces has no trace %s", traceID)
	}
	if tr.RemoteParent != parentID || !tr.Sampled {
		t.Fatalf("trace %s: remote parent %q sampled %v, want %s true", traceID, tr.RemoteParent, tr.Sampled, parentID)
	}
	names := map[string]bool{}
	for _, s := range tr.Spans {
		names[s.Name] = true
		if s.InFlight {
			t.Fatalf("trace %s exported unfinished span %q", traceID, s.Name)
		}
	}
	for _, want := range []string{"GET /v1/point", "decode", "eval", "encode"} {
		if !names[want] {
			t.Fatalf("trace %s has no %q span (spans: %v)", traceID, want, names)
		}
	}
}

// checkMetrics scrapes /metrics and checks that the exposition parses,
// that the serving families are present, that the HTTP and stage
// histograms are well formed, and that the encode stage yields a p50
// and a p99.
func checkMetrics(t *testing.T, base string) {
	t.Helper()
	_, body := mustFetch(t, base+"/metrics")
	fams, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	for _, name := range []string{
		"exaclim_http_requests_total", "exaclim_http_request_duration_seconds",
		"exaclim_requests_total", "exaclim_cache_hits_total",
		"exaclim_field_loads_total", "exaclim_goroutines",
		"exaclim_stage_duration_seconds",
	} {
		if fams[name] == nil {
			t.Fatalf("/metrics has no %s family", name)
		}
	}
	for _, name := range []string{"exaclim_http_request_duration_seconds", "exaclim_stage_duration_seconds"} {
		if err := obs.CheckHistogram(fams[name]); err != nil {
			t.Fatalf("/metrics %s: %v", name, err)
		}
	}
	encode := map[string]string{"stage": "encode"}
	p50, err := obs.HistogramQuantile(fams["exaclim_stage_duration_seconds"], encode, 0.5)
	if err != nil {
		t.Fatalf("encode stage p50: %v", err)
	}
	p99, err := obs.HistogramQuantile(fams["exaclim_stage_duration_seconds"], encode, 0.99)
	if err != nil {
		t.Fatalf("encode stage p99: %v", err)
	}
	if !(p50 > 0 && p50 <= p99) {
		t.Fatalf("encode stage p50 %g, p99 %g: want 0 < p50 <= p99", p50, p99)
	}
}
