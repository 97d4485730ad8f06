package main

import (
	"math"
	"testing"
	"time"

	"exaclim"
)

// servedShape is the campaign shape each serving row's generator sees.
func servedShape(w *workload) shape {
	if w.Live {
		return shape{Members: liveMembers, Scenarios: 1, Steps: liveArchSteps, LiveScen: livePathways, LiveSteps: liveSteps}
	}
	return shape{Members: fieldMembers, Scenarios: fieldScenarios, Steps: fieldSteps}
}

func servingRows() []*workload {
	var rows []*workload
	for i := range workloads {
		if len(workloads[i].Mix) > 0 {
			rows = append(rows, &workloads[i])
		}
	}
	return rows
}

// requestList renders the first n requests of one stream.
func requestList(w *workload, seed int64, stream uint64, n int) []string {
	sh := servedShape(w)
	g := newGenerator(w, sh, newPools(sh, seed), seed, stream, false)
	out := make([]string, n)
	for i := range out {
		r := g.next()
		out[i] = r.Class.String() + " " + r.URL()
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range servingRows() {
		a, b := requestList(w, 7, 0, 2000), requestList(w, 7, 0, 2000)
		other, otherStream := requestList(w, 8, 0, 2000), requestList(w, 7, 1, 2000)
		same, sameStream := 0, 0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs between two generators of one seed: %q vs %q", w.Name, i, a[i], b[i])
			}
			if a[i] == other[i] {
				same++
			}
			if a[i] == otherStream[i] {
				sameStream++
			}
		}
		if same > len(a)/10 || sameStream > len(a)/10 {
			t.Errorf("%s: %d of %d requests equal under another seed, %d under another stream", w.Name, same, len(a), sameStream)
		}
	}
}

func TestClassSharesMatchTheDeclaredMix(t *testing.T) {
	const n = 100000
	for _, w := range servingRows() {
		sh := servedShape(w)
		g := newGenerator(w, sh, newPools(sh, 3), 3, 0, false)
		var count [numClasses]int
		for i := 0; i < n; i++ {
			count[g.next().Class]++
		}
		for _, m := range w.Mix {
			if got := float64(count[m.Class]) / n; math.Abs(got-m.Share) > 0.01 {
				t.Errorf("%s: class %s has share %.3f, declared %.2f", w.Name, m.Class, got, m.Share)
			}
		}
	}
}

// TestPercentilesFallInsideAClass: with the classes ordered by cost, the
// median and the 99th percentile of the mix must each lie well inside
// one class. On a boundary, a 1% shift in the mix moves the percentile
// from one class's latency to the next one's, and the metric measures
// the generator, not the server.
func TestPercentilesFallInsideAClass(t *testing.T) {
	const margin = 0.05
	for _, w := range servingRows() {
		cum := 0.0
		for _, m := range w.Mix[:len(w.Mix)-1] {
			cum += m.Share
			for _, q := range []float64{0.50, 0.99} {
				if math.Abs(q-cum) < margin {
					t.Errorf("%s: p%.0f lies %.3f from the boundary after class %s (cumulative share %.2f)", w.Name, 100*q, math.Abs(q-cum), m.Class, cum)
				}
			}
		}
		// And on the generated list itself: the request at each percentile
		// of the cost-ordered list is of the class the shares predict.
		sh := servedShape(w)
		g := newGenerator(w, sh, newPools(sh, 11), 11, 0, false)
		rank := map[class]int{}
		for i, m := range w.Mix {
			rank[m.Class] = i
		}
		const n = 20000
		var perRank [numClasses]int
		for i := 0; i < n; i++ {
			perRank[rank[g.next().Class]]++
		}
		for _, q := range []float64{0.50, 0.99} {
			want, acc := 0, 0.0
			for i, m := range w.Mix {
				if acc += m.Share; q < acc {
					want = i
					break
				}
			}
			got, seen := 0, 0
			for i, c := range perRank {
				if seen += c; int(q*n) < seen {
					got = i
					break
				}
			}
			if got != want {
				t.Errorf("%s: p%.0f of the generated list is in class %s, the shares put it in %s", w.Name, 100*q, w.Mix[got].Class, w.Mix[want].Class)
			}
		}
	}
}

func TestHotSetFitsTheCacheAndTheColdSetDoesNot(t *testing.T) {
	points := int64(exaclim.GridForBandLimit(fieldL).Points())
	const defaultCache = 256 << 20 // serve.Config's default, split evenly between the two caches
	hot := findWorkload("field-hot")
	if hot.CacheBytes != 0 {
		t.Fatalf("field-hot must run on the default cache")
	}
	if f64 := hotSetSize * points * 8; f64 > defaultCache/2/2 {
		t.Errorf("hot set takes %d bytes of the %d-byte float64 cache: too close to eviction", f64, defaultCache/2)
	}
	sh := servedShape(hot)
	p := newPools(sh, 5)
	seen := map[fieldKey]bool{}
	for _, k := range p.Hot {
		seen[k] = true
	}
	if len(seen) != hotSetSize {
		t.Errorf("hot set has %d distinct fields, want %d", len(seen), hotSetSize)
	}
	g := newGenerator(hot, sh, p, 5, 0, false)
	for i := 0; i < 10000; i++ {
		if k := g.next().Key; !seen[k] {
			t.Fatalf("field-hot asked for %+v, outside the hot set", k)
		}
	}
	cold := findWorkload("field-cold")
	all := int64(fieldMembers * fieldScenarios * fieldSteps)
	if set, cache := all*points*4, cold.CacheBytes/2; set < 30*cache {
		t.Errorf("cold set is %d bytes as float32, only %.1fx its %d-byte cache", set, float64(set)/float64(cache), cache)
	}
}

func TestLiveCycleNeverRevisitsASeriesSoon(t *testing.T) {
	w := findWorkload("live-whatif")
	sh := servedShape(w)
	var measured [clients]map[fieldKey]bool
	for c := 0; c < clients; c++ {
		cyc := liveCycle(sh, 9, uint64(c), false)
		measured[c] = map[fieldKey]bool{}
		for _, k := range cyc {
			if measured[c][k] {
				t.Errorf("client %d: series %+v twice in one cycle", c, k)
			}
			measured[c][k] = true
		}
		// One cycle of other series, by each client, lies between two
		// visits (at least 70% of a full series per request: 70% of the
		// requests emulate all of it); that has to be well over what the
		// float64 cache holds.
		fieldBytes := int64(exaclim.GridForBandLimit(liveL).Points()) * 8
		if between := clients * int64(len(cyc)-1) * liveSteps * fieldBytes * 7 / 10; between < 2*(w.CacheBytes/2) {
			t.Errorf("client %d: about %d bytes emulated between two visits to a series, cache holds %d", c, between, w.CacheBytes/2)
		}
		for _, k := range liveCycle(sh, 9, uint64(c)+warmStream, true) {
			if measured[c][k] {
				t.Errorf("warm-up and measured window share series %+v", k)
			}
		}
	}
	for k := range measured[0] {
		if measured[1][k] {
			t.Errorf("both clients walk series %+v", k)
		}
	}
	if n := len(measured[0]) + len(measured[1]); n != liveMembers*livePathways/2 {
		t.Errorf("measured window covers %d series, want %d", n, liveMembers*livePathways/2)
	}
}

// fakeClock is an open-loop clock the test moves by hand.
type fakeClock struct{ now time.Duration }

func (f *fakeClock) Now() time.Duration { return f.now }
func (f *fakeClock) SleepUntil(d time.Duration) {
	f.now = max(f.now, d)
}

func TestOpenLoopSchedule(t *testing.T) {
	const window = 200 * time.Millisecond
	// The schedule the loop will follow.
	ref := newArrivals(4, 0, 500)
	var due []time.Duration
	for d := ref.next(); d < window; d = ref.next() {
		due = append(due, d)
	}
	if len(due) < 50 {
		t.Fatalf("only %d arrivals in the window", len(due))
	}
	// Every fifth request takes 10 ms, the rest 100 us: the slow ones
	// push the requests behind them past their due times.
	svc := func(n int) time.Duration {
		if n%5 == 0 {
			return 10 * time.Millisecond
		}
		return 100 * time.Microsecond
	}
	clk := &fakeClock{}
	var got []sample
	scheduled, unsent := runOpen(clk, newArrivals(4, 0, 500), window, func(n int, d, sent time.Duration) {
		if d != due[n] {
			t.Fatalf("request %d due at %v, schedule says %v", n, d, due[n])
		}
		if sent < d {
			t.Fatalf("request %d sent at %v, before it was due at %v", n, sent, d)
		}
		clk.now += svc(n)
		got = append(got, openSample(classFieldF32, d, sent, clk.now))
	})
	if scheduled != len(due) || unsent != 0 || len(got) != len(due) {
		t.Fatalf("scheduled %d, unsent %d, sent %d; want %d, 0, %d", scheduled, unsent, len(got), len(due), len(due))
	}
	free := time.Duration(0) // when the connection is next free
	late := 0
	for n, s := range got {
		sent := max(due[n], free)
		end := sent + svc(n)
		free = end
		if s.Lat != end-due[n] || s.Svc != svc(n) || s.End != end {
			t.Fatalf("request %d: latency %v service %v end %v; want %v %v %v", n, s.Lat, s.Svc, s.End, end-due[n], svc(n), end)
		}
		if wantLate := sent-due[n] > lateAfter; s.Late != wantLate {
			t.Fatalf("request %d: late=%v, sent %v after due", n, s.Late, sent-due[n])
		}
		if s.Late {
			late++
		}
	}
	if late == 0 {
		t.Errorf("no request was late behind a 10 ms one at 500 req/s")
	}
	sum := summarize(got, window+time.Second)
	if want := float64(late) / float64(len(got)); sum.LateShare != want {
		t.Errorf("late share %g, want %g", sum.LateShare, want)
	}
	// A loop that has fallen hopelessly behind stops sending and reports
	// what it did not send.
	clk = &fakeClock{}
	sent := 0
	scheduled, unsent = runOpen(clk, newArrivals(4, 0, 500), window, func(int, time.Duration, time.Duration) {
		clk.now += time.Second
		sent++
	})
	if unsent == 0 || sent+unsent != scheduled {
		t.Errorf("overrun: scheduled %d, sent %d, unsent %d", scheduled, sent, unsent)
	}
}
