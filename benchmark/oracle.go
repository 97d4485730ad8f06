package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"exaclim"
	"exaclim/internal/sht"
)

// The oracle recomputes sampled answers along a deliberately naive path
// that shares as little as it can with the serving code: a second
// Reader over the same file, one ReadField / ReadPacked per step, the
// one-shot sht.EvalPoint instead of the cached and batched evaluators,
// two-pass statistics, and for live rows Model.EmulateUnder on the
// member seed. Tolerances are the repo's documented ones.
const (
	tolF32   = 1e-5  // float32 pipeline against float64, relative to the field's max |value|
	tolField = 1e-12 // float64 field, relative to the field's max |value|
	tolPoint = 1e-10 // point / box / stats values, relative to max(1, |value|)
)

type oracle struct {
	env    *serveEnv
	reader *exaclim.ArchiveReader // second reader, its own chunk cache and plan
	grid   exaclim.Grid
	area   []float64
	packed []float64
	live   map[[2]int][]exaclim.Field // (member, scenario) -> emulated series
}

func newOracle(e *serveEnv) (*oracle, error) {
	r, err := exaclim.OpenArchive(e.Data.Path)
	if err != nil {
		return nil, fmt.Errorf("oracle: open archive: %w", err)
	}
	return &oracle{env: e, reader: r, grid: e.Grid, area: e.Grid.AreaWeights(), live: map[[2]int][]exaclim.Field{}}, nil
}

func (o *oracle) close() { o.reader.Close() }

// verify checks one kept response; a non-nil error is one failed
// operation.
func (o *oracle) verify(k keptBody) error {
	body := k.Body
	if k.Req.gzip() {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("gunzip: %w", err)
		}
		if body, err = io.ReadAll(zr); err != nil {
			return fmt.Errorf("gunzip: %w", err)
		}
	}
	r := k.Req
	switch r.Class {
	case classFieldF32:
		want, err := o.reader.ReadField(r.Key.Member, r.Key.Scenario, r.Key.T)
		if err != nil {
			return fmt.Errorf("oracle read field: %w", err)
		}
		return compareF32(body, want.Data, tolF32)
	case classFieldJSON, classFieldGzip:
		var got exaclim.FieldResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decode field: %w", err)
		}
		want, err := o.reader.ReadField(r.Key.Member, r.Key.Scenario, r.Key.T)
		if err != nil {
			return fmt.Errorf("oracle read field: %w", err)
		}
		if got.NLat != o.grid.NLat || got.NLon != o.grid.NLon || got.T != r.Key.T {
			return fmt.Errorf("field header %dx%d t=%d, want %dx%d t=%d", got.NLat, got.NLon, got.T, o.grid.NLat, o.grid.NLon, r.Key.T)
		}
		return compare(got.Data, want.Data, tolField*maxAbs(want.Data))
	case classPoint:
		var got exaclim.SeriesResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decode point series: %w", err)
		}
		want, err := o.pointSeries(r, r.Locs[0])
		if err != nil {
			return err
		}
		return compareEach(got.Values, want, tolPoint)
	case classPoints:
		var got struct {
			Series [][]float64 `json:"series"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decode points series: %w", err)
		}
		if len(got.Series) != len(r.Locs) {
			return fmt.Errorf("%d series, want %d", len(got.Series), len(r.Locs))
		}
		for p, loc := range r.Locs {
			want, err := o.pointSeries(r, loc)
			if err != nil {
				return err
			}
			if err := compareEach(got.Series[p], want, tolPoint); err != nil {
				return fmt.Errorf("location %d: %w", p, err)
			}
		}
		return nil
	case classBox:
		var got exaclim.SeriesResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decode box series: %w", err)
		}
		want, err := o.boxSeries(r)
		if err != nil {
			return err
		}
		return compareEach(got.Values, want, tolPoint)
	case classStats:
		var got exaclim.StatsResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decode stats: %w", err)
		}
		mean, spread, err := o.stats(r.Key.Scenario, r.Key.T)
		if err != nil {
			return err
		}
		if err := compareEach(got.Mean, mean, tolPoint); err != nil {
			return fmt.Errorf("mean: %w", err)
		}
		if err := compareEach(got.Spread, spread, tolPoint); err != nil {
			return fmt.Errorf("spread: %w", err)
		}
		return nil
	case classLiveField:
		var got exaclim.FieldResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decode live field: %w", err)
		}
		series, err := o.liveSeries(r.Key.Member, r.Key.Scenario)
		if err != nil {
			return err
		}
		want := series[r.Key.T].Data
		return compare(got.Data, want, tolField*maxAbs(want))
	case classLivePoint:
		var got exaclim.SeriesResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decode live point series: %w", err)
		}
		series, err := o.liveSeries(r.Key.Member, r.Key.Scenario)
		if err != nil {
			return err
		}
		theta, phi := angles(r.Locs[0])
		want := make([]float64, 0, r.T1-r.T0)
		for t := r.T0; t < r.T1; t++ {
			want = append(want, bilinear(o.grid, series[t].Data, theta, phi))
		}
		return compareEach(got.Values, want, tolPoint)
	}
	return fmt.Errorf("oracle: no rule for class %s", r.Class)
}

func angles(l latLon) (theta, phi float64) {
	return (90 - l.Lat) * math.Pi / 180, l.Lon * math.Pi / 180
}

// pointSeries evaluates the archived coefficients at one location, one
// step at a time, with the one-shot evaluator.
func (o *oracle) pointSeries(r request, loc latLon) ([]float64, error) {
	theta, phi := angles(loc)
	out := make([]float64, 0, r.T1-r.T0)
	for t := r.T0; t < r.T1; t++ {
		var err error
		o.packed, err = o.reader.ReadPacked(r.Key.Member, r.Key.Scenario, t, o.packed)
		if err != nil {
			return nil, fmt.Errorf("oracle read packed: %w", err)
		}
		out = append(out, sht.EvalPoint(sht.UnpackReal(o.packed), theta, phi))
	}
	return out, nil
}

// boxSeries synthesizes every step on the grid and averages the grid
// points inside the box with area weights — the definition of /v1/box,
// without its ring evaluators.
func (o *oracle) boxSeries(r request) ([]float64, error) {
	g := o.grid
	var rings, lons []int
	for i := 0; i < g.NLat; i++ {
		if lat := g.Latitude(i); lat >= r.Box.Lat0 && lat <= r.Box.Lat1 {
			rings = append(rings, i)
		}
	}
	lo, hi := math.Mod(r.Box.Lon0, 360), math.Mod(r.Box.Lon1, 360)
	for j := 0; j < g.NLon; j++ {
		lon := g.LongitudeDeg(j)
		if (lo <= hi && lon >= lo && lon <= hi) || (lo > hi && (lon >= lo || lon <= hi)) {
			lons = append(lons, j)
		}
	}
	if len(rings) == 0 || len(lons) == 0 {
		return nil, fmt.Errorf("oracle: box %+v holds no grid point", r.Box)
	}
	out := make([]float64, 0, r.T1-r.T0)
	for t := r.T0; t < r.T1; t++ {
		f, err := o.reader.ReadField(r.Key.Member, r.Key.Scenario, t)
		if err != nil {
			return nil, fmt.Errorf("oracle read field: %w", err)
		}
		sum, wsum := 0.0, 0.0
		for _, i := range rings {
			for _, j := range lons {
				sum += o.area[i] * f.At(i, j)
				wsum += o.area[i]
			}
		}
		out = append(out, sum/wsum)
	}
	return out, nil
}

// stats recomputes the ensemble mean and sample spread in two passes.
func (o *oracle) stats(scenario, t int) (mean, spread []float64, err error) {
	n := o.env.Shape.Members
	fields := make([]exaclim.Field, n)
	for m := range fields {
		if fields[m], err = o.reader.ReadField(m, scenario, t); err != nil {
			return nil, nil, fmt.Errorf("oracle read field: %w", err)
		}
	}
	pts := o.grid.Points()
	mean, spread = make([]float64, pts), make([]float64, pts)
	for p := 0; p < pts; p++ {
		for _, f := range fields {
			mean[p] += f.Data[p]
		}
		mean[p] /= float64(n)
		for _, f := range fields {
			d := f.Data[p] - mean[p]
			spread[p] += d * d
		}
		spread[p] = math.Sqrt(spread[p] / float64(n-1))
	}
	return mean, spread, nil
}

// liveSeries emulates the whole what-if horizon of (member, scenario)
// directly on the model, once.
func (o *oracle) liveSeries(member, scenario int) ([]exaclim.Field, error) {
	key := [2]int{member, scenario}
	if s, ok := o.live[key]; ok {
		return s, nil
	}
	cfg := o.env.Cfg
	rf := cfg.LivePathways[scenario-o.env.Shape.Scenarios].Annual
	s, err := o.env.Data.Live.Model.EmulateUnder(rf, exaclim.MemberSeed(cfg.BaseSeed, member, scenario), cfg.LiveT0, cfg.LiveSteps)
	if err != nil {
		return nil, fmt.Errorf("oracle emulate: %w", err)
	}
	o.live[key] = s
	return s, nil
}

// bilinear is the documented sampling rule of live point queries:
// bilinear on the grid, periodic in longitude, clamped at the poles.
func bilinear(g exaclim.Grid, data []float64, theta, phi float64) float64 {
	fi := theta / math.Pi * float64(g.NLat-1)
	i0 := min(max(int(math.Floor(fi)), 0), g.NLat-2)
	ti := min(max(fi-float64(i0), 0), 1)
	fj := math.Mod(math.Mod(phi, 2*math.Pi)+2*math.Pi, 2*math.Pi) / (2 * math.Pi) * float64(g.NLon)
	j0 := int(math.Floor(fj)) % g.NLon
	tj := fj - math.Floor(fj)
	j1 := (j0 + 1) % g.NLon
	top := data[i0*g.NLon+j0]*(1-tj) + data[i0*g.NLon+j1]*tj
	bot := data[(i0+1)*g.NLon+j0]*(1-tj) + data[(i0+1)*g.NLon+j1]*tj
	return top*(1-ti) + bot*ti
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, math.Abs(x))
	}
	return m
}

// compare checks got against want under one absolute tolerance.
func compare(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= tol) {
			return fmt.Errorf("value %d: got %g, want %g (off by %g, tolerance %g)", i, got[i], want[i], d, tol)
		}
	}
	return nil
}

// compareEach checks got against want with a tolerance relative to each
// value (floored at 1).
func compareEach(got, want []float64, rel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		tol := rel * max(1, math.Abs(want[i]))
		if d := math.Abs(got[i] - want[i]); !(d <= tol) {
			return fmt.Errorf("value %d: got %g, want %g (off by %g, tolerance %g)", i, got[i], want[i], d, tol)
		}
	}
	return nil
}

// compareF32 checks a raw little-endian float32 body against float64
// reference values, relative to the reference's max |value|.
func compareF32(body []byte, want []float64, rel float64) error {
	if len(body) != 4*len(want) {
		return fmt.Errorf("%d bytes, want %d", len(body), 4*len(want))
	}
	got := make([]float64, len(want))
	for i := range got {
		got[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:])))
	}
	return compare(got, want, rel*maxAbs(want))
}
