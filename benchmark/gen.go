package main

import (
	"math"
	"math/rand"
	"strconv"
	"time"
)

// shape is what the generator knows about the served campaign.
type shape struct {
	Members   int
	Scenarios int // archived scenarios
	Steps     int // archived steps per series
	LiveScen  int // live scenarios, indexed after the archived ones
	LiveSteps int
}

// fieldKey addresses one field.
type fieldKey struct{ Member, Scenario, T int }

// latLon is a location in degrees.
type latLon struct{ Lat, Lon float64 }

// boxDeg is a 10 x 10 degree box.
type boxDeg struct{ Lat0, Lat1, Lon0, Lon1 float64 }

// request is one generated HTTP request. Everything the oracle needs to
// recompute the answer is in here, so the URL is never parsed back.
type request struct {
	Class  class
	Key    fieldKey // field and stats classes: the step is Key.T
	T0, T1 int      // series classes: the step range
	Locs   []latLon // point: 1, points: pointsPerReq
	Box    boxDeg
}

// gzip reports whether the request asks for a compressed body.
func (r request) gzip() bool { return r.Class == classFieldGzip }

// URL renders the path and query of the request.
func (r request) URL() string {
	b := make([]byte, 0, 96)
	series := func(path string) {
		b = append(b, path...)
		b = append(b, "?member="...)
		b = strconv.AppendInt(b, int64(r.Key.Member), 10)
		b = append(b, "&scenario="...)
		b = strconv.AppendInt(b, int64(r.Key.Scenario), 10)
		b = append(b, "&t0="...)
		b = strconv.AppendInt(b, int64(r.T0), 10)
		b = append(b, "&t1="...)
		b = strconv.AppendInt(b, int64(r.T1), 10)
	}
	deg := func(name string, v float64) {
		b = append(b, name...)
		b = strconv.AppendFloat(b, v, 'f', 2, 64)
	}
	switch r.Class {
	case classFieldF32, classFieldJSON, classFieldGzip, classLiveField:
		b = append(b, "/v1/field?member="...)
		b = strconv.AppendInt(b, int64(r.Key.Member), 10)
		b = append(b, "&scenario="...)
		b = strconv.AppendInt(b, int64(r.Key.Scenario), 10)
		b = append(b, "&t="...)
		b = strconv.AppendInt(b, int64(r.Key.T), 10)
		if r.Class == classFieldF32 {
			b = append(b, "&format=f32"...)
		}
	case classStats:
		b = append(b, "/v1/stats?scenario="...)
		b = strconv.AppendInt(b, int64(r.Key.Scenario), 10)
		b = append(b, "&t="...)
		b = strconv.AppendInt(b, int64(r.Key.T), 10)
	case classPoint, classLivePoint:
		series("/v1/point")
		deg("&lat=", r.Locs[0].Lat)
		deg("&lon=", r.Locs[0].Lon)
	case classPoints:
		series("/v1/points")
		for i, l := range r.Locs {
			if i == 0 {
				deg("&lat=", l.Lat)
			} else {
				deg(",", l.Lat)
			}
		}
		for i, l := range r.Locs {
			if i == 0 {
				deg("&lon=", l.Lon)
			} else {
				deg(",", l.Lon)
			}
		}
	case classBox:
		series("/v1/box")
		deg("&lat0=", r.Box.Lat0)
		deg("&lat1=", r.Box.Lat1)
		deg("&lon0=", r.Box.Lon0)
		deg("&lon1=", r.Box.Lon1)
	}
	return string(b)
}

// pools are the seed-derived sets requests draw from; both clients and
// the warm-up share them.
type pools struct {
	Hot   []fieldKey // Zipf rank -> field
	Locs  []latLon
	Boxes []boxDeg
}

// centi rounds to the two decimals URL() prints, so the value the
// oracle evaluates at is the value the server parsed.
func centi(v float64) float64 { return math.Round(v*100) / 100 }

func newPools(sh shape, seed int64) pools {
	rng := rand.New(rand.NewSource(mixSeed(seed, 0x9001)))
	var p pools
	total := sh.Members * sh.Scenarios * sh.Steps
	for _, k := range rng.Perm(total)[:min(hotSetSize, total)] {
		p.Hot = append(p.Hot, fieldKey{
			Member: k / (sh.Scenarios * sh.Steps), Scenario: k / sh.Steps % sh.Scenarios, T: k % sh.Steps,
		})
	}
	for i := 0; i < locationPool; i++ {
		p.Locs = append(p.Locs, latLon{centi(-85 + 170*rng.Float64()), centi(360 * rng.Float64())})
	}
	for i := 0; i < boxPool; i++ {
		lat0 := centi(-80 + 150*rng.Float64())
		lon0 := centi(340 * rng.Float64())
		p.Boxes = append(p.Boxes, boxDeg{lat0, centi(lat0 + 10), lon0, centi(lon0 + 10)})
	}
	return p
}

// mixSeed derives an independent stream seed from the run seed and a
// stream number (splitmix64 finalizer).
func mixSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// generator yields one client's request stream: a pure function of
// (workload, shape, seed, stream), so the same seed replays the same
// requests whatever the server does with them.
type generator struct {
	w     *workload
	sh    shape
	p     pools
	rng   *rand.Rand
	zipf  *rand.Zipf
	cycle []fieldKey // keysLive: the series this client walks, in order
	pos   int
	block []class // the classes of the current block, drawn from the back
}

// newGenerator builds the request stream `stream` of the run. warm
// selects the warm-up variant of the stream, which differs only on live
// rows (see liveCycle).
func newGenerator(w *workload, sh shape, p pools, seed int64, stream uint64, warm bool) *generator {
	rng := rand.New(rand.NewSource(mixSeed(seed, stream)))
	g := &generator{w: w, sh: sh, p: p, rng: rng}
	switch w.Keys {
	case keysZipfHot:
		g.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(p.Hot)-1))
	case keysLive:
		g.cycle = liveCycle(sh, seed, stream, warm)
	}
	return g
}

// liveCycle is the order in which one client of a live row visits the
// what-if series. The row measures the cold cost of a what-if query —
// emulating from step 0 — so every request has to find its series gone
// from the cache: each client walks a fixed shuffle of its own share of
// the series (no series is shared between the two clients), which puts a
// whole cycle of other series between two visits to one, far more than
// the cache holds. Warm-up walks the first half of the live scenarios
// and the measured window the second half, so the window does not start
// on series the warm-up has just left half-evicted. That case is not
// hypothetical: a point query on a series whose early steps are evicted
// but whose last step is resident re-emulates from step 0 once per
// missing step (README.md, "What the harness found").
func liveCycle(sh shape, seed int64, stream uint64, warm bool) []fieldKey {
	half := sh.LiveScen / 2
	first := sh.Scenarios + half
	if warm {
		first = sh.Scenarios
	}
	var series []fieldKey
	for m := 0; m < sh.Members; m++ {
		for s := first; s < first+half; s++ {
			if uint64(m+s)%clients == stream%clients {
				series = append(series, fieldKey{Member: m, Scenario: s})
			}
		}
	}
	rng := rand.New(rand.NewSource(mixSeed(seed, 0xc1c1e+stream%clients)))
	rng.Shuffle(len(series), func(i, j int) { series[i], series[j] = series[j], series[i] })
	return series
}

// mixBlock is the number of consecutive requests that hold every class
// in exactly its declared share; every share is a multiple of 1/mixBlock.
const mixBlock = 20

// pickClass deals classes from a shuffled block of mixBlock requests
// that holds each class in exactly its share, instead of drawing each
// request's class independently. The order is still random, but every
// second of the window carries the declared mix to within one block, so
// a slice's throughput and percentiles do not move with the luck of how
// many costly requests fell into it.
func (g *generator) pickClass() class {
	if len(g.block) == 0 {
		for _, m := range g.w.Mix {
			for i := 0; i < int(math.Round(m.Share*mixBlock)); i++ {
				g.block = append(g.block, m.Class)
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	c := g.block[len(g.block)-1]
	g.block = g.block[:len(g.block)-1]
	return c
}

func (g *generator) next() request {
	r := request{Class: g.pickClass()}
	switch g.w.Keys {
	case keysZipfHot:
		r.Key = g.p.Hot[g.zipf.Uint64()]
	case keysLive:
		r.Key = g.cycle[g.pos%len(g.cycle)]
		r.Key.T = g.rng.Intn(g.sh.LiveSteps)
		g.pos++
	default:
		r.Key = fieldKey{g.rng.Intn(g.sh.Members), g.rng.Intn(g.sh.Scenarios), g.rng.Intn(g.sh.Steps)}
	}
	switch r.Class {
	case classPoint, classPoints, classBox:
		r.T0 = g.rng.Intn(g.sh.Steps - seriesSteps + 1)
		r.T1 = r.T0 + seriesSteps
	case classLivePoint: // the full what-if horizon
		r.T0, r.T1 = 0, g.sh.LiveSteps
	}
	switch r.Class {
	case classPoint, classLivePoint:
		r.Locs = []latLon{g.p.Locs[g.rng.Intn(len(g.p.Locs))]}
	case classPoints:
		r.Locs = make([]latLon, pointsPerReq)
		for i := range r.Locs {
			r.Locs[i] = g.p.Locs[g.rng.Intn(len(g.p.Locs))]
		}
	case classBox:
		r.Box = g.p.Boxes[g.rng.Intn(len(g.p.Boxes))]
	}
	return r
}

// sampled reports whether request n of a stream is kept for the oracle:
// one in sampleOneIn, chosen by the seed.
func sampled(seed int64, stream uint64, n int) bool {
	return uint64(mixSeed(seed^int64(n), stream^0x5a17))%sampleOneIn == 0
}

// arrivals yields the due times of one connection's Poisson process.
type arrivals struct {
	rng  *rand.Rand
	rate float64 // per second
	due  time.Duration
}

func newArrivals(seed int64, stream uint64, rate float64) *arrivals {
	return &arrivals{rng: rand.New(rand.NewSource(mixSeed(seed, stream^0xa771))), rate: rate}
}

// next returns the next due time, as an offset from the window start.
func (a *arrivals) next() time.Duration {
	a.due += time.Duration(a.rng.ExpFloat64() / a.rate * float64(time.Second))
	return a.due
}
