package exaclim_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"exaclim"
	"exaclim/internal/serve"
	"exaclim/internal/sht"
)

// The differential oracle: the tier-1 twin of benchmark/oracle.go. Seeded
// random queries over archived and live scenarios are answered by one
// shared Server and recomputed along a deliberately naive path that
// shares as little as it can with the serving code — a second reader over
// the same bytes, one ReadField / ReadPacked per step, the one-shot
// sht.EvalPoint instead of the weight-matrix evaluators, direct indexing
// of grids for boxes, two-pass statistics, and Model.EmulateUnder on the
// member seed for live scenarios. Tolerances are the ones the benchmark's
// oracle documents.
const (
	oracleTolF32   = 1e-5  // float32 field, relative to the field's max |value|
	oracleTolField = 1e-12 // float64 field, relative to the field's max |value|
	oracleTolPoint = 1e-10 // point / box / stats values, relative to max(1, |value|)
)

const (
	oracleL         = 8
	oracleMembers   = 3
	oracleScenarios = 2
	oracleSteps     = 40
	oracleLiveSteps = 24
	oracleLiveT0    = 30
	oracleBaseSeed  = 77
)

// oracleEnv is the served system plus everything the naive path needs.
type oracleEnv struct {
	srv     *exaclim.Server
	handler http.Handler           // srv.Handler(), for the f32 format
	ref     *exaclim.ArchiveReader // second reader: its own chunk cache and plan
	grid    exaclim.Grid
	area    []float64
	model   *exaclim.Model
	live    []exaclim.Pathway

	mu     sync.Mutex
	series map[[2]int][]exaclim.Field // (member, scenario) -> emulated live series

	// spectral counts the point (index 0) and multi-point (index 1)
	// answers checked over archived scenarios: the spectral evaluation
	// path, as opposed to bilinear sampling of live grids.
	spectral [2]atomic.Int64
}

func newOracleEnv(t *testing.T) *oracleEnv {
	t.Helper()
	grid := exaclim.GridForBandLimit(oracleL)
	gen, err := exaclim.NewSynthetic(exaclim.SyntheticConfig{
		Grid: grid, L: oracleL, Seed: 5, StartYear: 1990, StepsPerDay: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rf := gen.AnnualRF(15, 3)
	model, err := exaclim.Train([][]exaclim.Field{gen.Run(exaclim.DaysPerYear)}, rf, 15, exaclim.Config{
		L: oracleL, P: 1, Variant: exaclim.DPHP, SenderConvert: true,
		Trend: exaclim.TrendOptions{StepsPerYear: exaclim.DaysPerYear, K: 1, RhoGrid: []float64{0.7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	whatIf := make([]float64, len(rf))
	for y, v := range rf {
		whatIf[y] = v + 1.5
	}

	// All three stored precisions, a chunk size that does not divide the
	// step count, and a spectrum that decays like a climate field's.
	var buf bytes.Buffer
	w, err := exaclim.NewArchiveWriter(&buf, exaclim.ArchiveHeader{
		Grid: grid, L: oracleL, Members: oracleMembers, Scenarios: oracleScenarios,
		Steps: oracleSteps, ChunkSteps: 12,
		Bands: []exaclim.ArchiveBand{
			{Lo: 0, Hi: 2, Prec: exaclim.FP64}, {Lo: 2, Hi: 5, Prec: exaclim.FP32}, {Lo: 5, Hi: oracleL, Prec: exaclim.FP16},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	packed := make([]float64, oracleL*oracleL)
	for s := 0; s < oracleScenarios; s++ {
		for m := 0; m < oracleMembers; m++ {
			for ts := 0; ts < oracleSteps; ts++ {
				for i := range packed {
					packed[i] = 280*float64(1-min(i, 1)) + 10*rng.NormFloat64()/float64(1+sht.PackDegree(i))
				}
				if err := w.AddPacked(m, s, ts, packed); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	open := func() *exaclim.ArchiveReader {
		r, err := exaclim.NewArchiveReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	e := &oracleEnv{
		ref: open(), grid: grid, area: grid.AreaWeights(), model: model,
		live:   []exaclim.Pathway{{Name: "plus-1.5", Annual: whatIf}},
		series: map[[2]int][]exaclim.Field{},
	}
	// Two live scenarios: the what-if pathway and the training forcing. The
	// cache holds about half of one live series, so live answers come from
	// resident entries, from a run's own output and from re-runs alike.
	e.srv, err = exaclim.NewServer(open(), model, exaclim.ServeConfig{
		CacheBytes:    int64(8 * oracleLiveSteps / 2 * grid.Points() * 8),
		LiveScenarios: 2, LivePathways: e.live,
		LiveSteps: oracleLiveSteps, LiveT0: oracleLiveT0, BaseSeed: oracleBaseSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.handler = e.srv.Handler()
	return e
}

func (e *oracleEnv) isLive(scenario int) bool { return scenario >= oracleScenarios }

func (e *oracleEnv) steps(scenario int) int {
	if e.isLive(scenario) {
		return oracleLiveSteps
	}
	return oracleSteps
}

// field is the naive full grid of (member, scenario, t).
func (e *oracleEnv) field(member, scenario, t int) ([]float64, error) {
	if !e.isLive(scenario) {
		f, err := e.ref.ReadField(member, scenario, t)
		return f.Data, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := [2]int{member, scenario}
	if _, ok := e.series[key]; !ok {
		var rf []float64 // nil: the training forcing
		if li := scenario - oracleScenarios; li < len(e.live) {
			rf = e.live[li].Annual
		}
		s, err := e.model.EmulateUnder(rf, exaclim.MemberSeed(oracleBaseSeed, member, scenario), oracleLiveT0, oracleLiveSteps)
		if err != nil {
			return nil, err
		}
		e.series[key] = s
	}
	return e.series[key][t].Data, nil
}

// point is the naive value at (lat, lon): the one-shot spectral
// evaluation for archived steps, bilinear sampling of the emulated grid
// for live ones.
func (e *oracleEnv) point(member, scenario, t int, lat, lon float64) (float64, error) {
	theta, phi := (90-lat)*math.Pi/180, lon*math.Pi/180
	if !e.isLive(scenario) {
		packed, err := e.ref.ReadPacked(member, scenario, t, nil)
		if err != nil {
			return 0, err
		}
		return sht.EvalPoint(sht.UnpackReal(packed), theta, phi), nil
	}
	data, err := e.field(member, scenario, t)
	if err != nil {
		return 0, err
	}
	g := e.grid
	fi := theta / math.Pi * float64(g.NLat-1)
	i0 := min(max(int(math.Floor(fi)), 0), g.NLat-2)
	ti := min(max(fi-float64(i0), 0), 1)
	fj := math.Mod(math.Mod(phi, 2*math.Pi)+2*math.Pi, 2*math.Pi) / (2 * math.Pi) * float64(g.NLon)
	j0 := int(math.Floor(fj)) % g.NLon
	tj := fj - math.Floor(fj)
	j1 := (j0 + 1) % g.NLon
	top := data[i0*g.NLon+j0]*(1-tj) + data[i0*g.NLon+j1]*tj
	bot := data[(i0+1)*g.NLon+j0]*(1-tj) + data[(i0+1)*g.NLon+j1]*tj
	return top*(1-ti) + bot*ti, nil
}

// boxMean is the naive area-weighted mean over the grid points inside
// box, by direct indexing of the full grid; ok is false when the box
// holds no grid point.
func (e *oracleEnv) boxMean(member, scenario, t int, box exaclim.QueryBox) (mean float64, ok bool, err error) {
	data, err := e.field(member, scenario, t)
	if err != nil {
		return 0, false, err
	}
	g := e.grid
	norm := func(lon float64) float64 { return math.Mod(math.Mod(lon, 360)+360, 360) }
	lo, hi := norm(box.LonMin), norm(box.LonMax)
	sum, wsum := 0.0, 0.0
	for i := 0; i < g.NLat; i++ {
		if lat := g.Latitude(i); lat < box.LatMin || lat > box.LatMax {
			continue
		}
		for j := 0; j < g.NLon; j++ {
			lon := g.LongitudeDeg(j)
			if box.LonMax-box.LonMin >= 360 || (lo <= hi && lon >= lo && lon <= hi) || (lo > hi && (lon >= lo || lon <= hi)) {
				sum += e.area[i] * data[i*g.NLon+j]
				wsum += e.area[i]
			}
		}
	}
	if wsum == 0 {
		return 0, false, nil
	}
	return sum / wsum, true, nil
}

// near checks got against want relative to max(1, |want|).
func near(got, want, tol float64) error {
	if d := math.Abs(got - want); !(d <= tol*math.Max(1, math.Abs(want))) {
		return fmt.Errorf("got %.17g, want %.17g (off by %g)", got, want, d)
	}
	return nil
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, math.Abs(x))
	}
	return m
}

// check draws one query from rng, asks the server, and recomputes it.
func (e *oracleEnv) check(ctx context.Context, rng *rand.Rand) error {
	member := rng.Intn(oracleMembers)
	scenario := rng.Intn(oracleScenarios + 2)
	steps := e.steps(scenario)
	t := rng.Intn(steps)
	t0 := rng.Intn(steps)
	t1 := t0 + 1 + rng.Intn(steps-t0)
	loc := func() (lat, lon float64) { return -90 + 180*rng.Float64(), -180 + 540*rng.Float64() }
	switch kind := rng.Intn(6); kind {
	case 0: // field, float64
		want, err := e.field(member, scenario, t)
		if err != nil {
			return err
		}
		got, err := e.srv.Field(ctx, member, scenario, t)
		if err != nil {
			return fmt.Errorf("Field(%d,%d,%d): %w", member, scenario, t, err)
		}
		for p := range want {
			if d := math.Abs(got[p] - want[p]); !(d <= oracleTolField*maxAbs(want)) {
				return fmt.Errorf("Field(%d,%d,%d) pixel %d: got %g, want %g", member, scenario, t, p, got[p], want[p])
			}
		}
	case 1: // field, float32
		want, err := e.field(member, scenario, t)
		if err != nil {
			return err
		}
		url := fmt.Sprintf("/v1/field?member=%d&scenario=%d&t=%d&format=f32", member, scenario, t)
		rec := httptest.NewRecorder()
		e.handler.ServeHTTP(rec, httptest.NewRequest("GET", url, nil).WithContext(ctx))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s -> %d: %s", url, rec.Code, rec.Body.Bytes())
		}
		body := rec.Body.Bytes()
		// The body is the float64 field narrowed value by value.
		field, err := e.srv.Field(ctx, member, scenario, t)
		if err != nil {
			return fmt.Errorf("Field(%d,%d,%d): %w", member, scenario, t, err)
		}
		if len(body) != 4*len(want) {
			return fmt.Errorf("%s: %d bytes, want %d", url, len(body), 4*len(want))
		}
		for p := range want {
			bits := binary.LittleEndian.Uint32(body[4*p:])
			if bits != math.Float32bits(float32(field[p])) {
				return fmt.Errorf("%s pixel %d: got %g, want float32(Field) %g", url, p, math.Float32frombits(bits), float32(field[p]))
			}
			if d := math.Abs(float64(math.Float32frombits(bits)) - want[p]); !(d <= oracleTolF32*maxAbs(want)) {
				return fmt.Errorf("%s pixel %d: got %g, want %g", url, p, math.Float32frombits(bits), want[p])
			}
		}
	case 2: // point series
		lat, lon := loc()
		got, err := e.srv.PointSeries(ctx, member, scenario, lat, lon, t0, t1)
		if err != nil {
			return fmt.Errorf("PointSeries(%d,%d,%g,%g,[%d,%d)): %w", member, scenario, lat, lon, t0, t1, err)
		}
		for i, v := range got {
			want, err := e.point(member, scenario, t0+i, lat, lon)
			if err == nil {
				err = near(v, want, oracleTolPoint)
			}
			if err != nil {
				return fmt.Errorf("PointSeries(%d,%d,%g,%g) step %d: %w", member, scenario, lat, lon, t0+i, err)
			}
		}
		if !e.isLive(scenario) {
			e.spectral[0].Add(1)
		}
	case 3: // multi-point series
		n := 1 + rng.Intn(5)
		lats, lons := make([]float64, n), make([]float64, n)
		for p := range lats {
			lats[p], lons[p] = loc()
		}
		got, err := e.srv.PointsSeries(ctx, member, scenario, lats, lons, t0, t1)
		if err != nil {
			return fmt.Errorf("PointsSeries(%d,%d,[%d,%d)): %w", member, scenario, t0, t1, err)
		}
		for p := range got {
			for i, v := range got[p] {
				want, err := e.point(member, scenario, t0+i, lats[p], lons[p])
				if err == nil {
					err = near(v, want, oracleTolPoint)
				}
				if err != nil {
					return fmt.Errorf("PointsSeries(%d,%d) location %d (%g,%g) step %d: %w", member, scenario, p, lats[p], lons[p], t0+i, err)
				}
			}
		}
		if !e.isLive(scenario) {
			e.spectral[1].Add(1)
		}
	case 4: // box series, including boxes that wrap the date line
		lat0, _ := loc()
		box := exaclim.QueryBox{LatMin: lat0, LatMax: math.Min(90, lat0+10+60*rng.Float64()), LonMin: -180 + 540*rng.Float64()}
		box.LonMax = box.LonMin + 20 + 200*rng.Float64()
		if rng.Intn(3) == 0 {
			box.LonMax = math.Mod(box.LonMax, 360) // LonMin > LonMax: the wrapping form
		}
		got, err := e.srv.BoxSeries(ctx, member, scenario, box, t0, t1)
		if _, ok, _ := e.boxMean(member, scenario, t0, box); !ok {
			var qe *serve.QueryError
			if !errors.As(err, &qe) {
				return fmt.Errorf("BoxSeries(%+v) holds no grid point and wants a QueryError: %w", box, err)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("BoxSeries(%d,%d,%+v,[%d,%d)): %w", member, scenario, box, t0, t1, err)
		}
		for i, v := range got {
			want, _, err := e.boxMean(member, scenario, t0+i, box)
			if err == nil {
				err = near(v, want, oracleTolPoint)
			}
			if err != nil {
				return fmt.Errorf("BoxSeries(%d,%d,%+v) step %d: %w", member, scenario, box, t0+i, err)
			}
		}
	case 5: // ensemble statistics, two-pass
		mean, spread, err := e.srv.EnsembleStats(ctx, scenario, t)
		if err != nil {
			return fmt.Errorf("EnsembleStats(%d,%d): %w", scenario, t, err)
		}
		fields := make([][]float64, oracleMembers)
		for m := range fields {
			if fields[m], err = e.field(m, scenario, t); err != nil {
				return err
			}
		}
		for p := range mean {
			mu, ss := 0.0, 0.0
			for _, f := range fields {
				mu += f[p]
			}
			mu /= oracleMembers
			for _, f := range fields {
				ss += (f[p] - mu) * (f[p] - mu)
			}
			if err := near(mean[p], mu, oracleTolPoint); err != nil {
				return fmt.Errorf("EnsembleStats(%d,%d) mean pixel %d: %w", scenario, t, p, err)
			}
			if err := near(spread[p], math.Sqrt(ss/(oracleMembers-1)), oracleTolPoint); err != nil {
				return fmt.Errorf("EnsembleStats(%d,%d) spread pixel %d: %w", scenario, t, p, err)
			}
		}
	}
	return nil
}

// TestServerDifferentialOracle runs the oracle from four goroutines on
// one server (distinct seeds, shared caches), so the answers are also
// checked under the coalescing, eviction and re-run interleavings real
// traffic produces; `go test -race` watches the same run.
func TestServerDifferentialOracle(t *testing.T) {
	e := newOracleEnv(t)
	queries := 150
	if testing.Short() {
		queries = 40
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for q := 0; q < queries; q++ {
				if err := e.check(context.Background(), rng); err != nil {
					t.Errorf("goroutine %d query %d: %v", g, q, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := e.srv.Stats()
	points, multi := e.spectral[0].Load(), e.spectral[1].Load()
	if st.FieldLoads == 0 || st.LiveLoads == 0 || points == 0 || multi == 0 || st.Cache.Misses == 0 {
		t.Errorf("the draw missed a path: %d spectral point and %d multi-point answers checked, %+v", points, multi, st)
	}
}
