package exaclim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"exaclim"
	"exaclim/internal/cluster"
	"exaclim/internal/sht"
)

// TestPublicAPIEndToEnd exercises the documented public workflow:
// synthesize data, train, emulate, check consistency, save and reload.
func TestPublicAPIEndToEnd(t *testing.T) {
	gen, err := exaclim.NewSynthetic(exaclim.SyntheticConfig{
		Grid: exaclim.GridForBandLimit(16), L: 16, Seed: 3, StartYear: 1995, StepsPerDay: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := gen.Run(2 * exaclim.DaysPerYear)
	model, err := exaclim.Train([][]exaclim.Field{sim}, gen.AnnualRF(10, 3), 10, exaclim.Config{
		L: 10, P: 2, Variant: exaclim.DPHP, SenderConvert: true,
		Trend: exaclim.TrendOptions{StepsPerYear: exaclim.DaysPerYear, K: 2,
			RhoGrid: []float64{0.85}},
	})
	if err != nil {
		t.Fatal(err)
	}
	emu, err := model.Emulate(1, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(emu) != 30 || emu[0].Grid != sim[0].Grid {
		t.Fatalf("emulation shape wrong: %d fields on %v", len(emu), emu[0].Grid)
	}
	// Plausible Kelvin range.
	min, max := emu[0].MinMax()
	if min < 150 || max > 360 {
		t.Errorf("emulated temperatures [%g, %g] implausible", min, max)
	}
	cons, err := model.CheckConsistency(sim, 9)
	if err != nil {
		t.Fatal(err)
	}
	if cons.StdRatio < 0.7 || cons.StdRatio > 1.4 {
		t.Errorf("consistency out of range: %v", cons)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := exaclim.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Diag.CovDim != model.Diag.CovDim {
		t.Error("reloaded model differs")
	}
}

func TestPublicSHT(t *testing.T) {
	g := exaclim.GridForBandLimit(12)
	plan, err := exaclim.NewSHT(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	f := exaclim.Field{Grid: g, Data: make([]float64, g.Points())}
	for i := range f.Data {
		f.Data[i] = 1 // constant field = sqrt(4 pi) Y_00
	}
	c := plan.Analyze(f)
	want := math.Sqrt(4 * math.Pi)
	if got := real(c.At(0, 0)); math.Abs(got-want) > 1e-10 {
		t.Errorf("Y00 coefficient of unit field = %g, want %g", got, want)
	}
}

// TestPublicMeanPowerSpectrumEmpty: an empty series has the zero
// spectrum, not 0/0 — the NaNs used to flow into ArchivePolicy.PlanBands.
func TestPublicMeanPowerSpectrumEmpty(t *testing.T) {
	const L = 6
	plan, err := exaclim.NewSHT(exaclim.GridForBandLimit(L), L)
	if err != nil {
		t.Fatal(err)
	}
	spec := exaclim.MeanPowerSpectrum(plan, nil)
	if len(spec) != L {
		t.Fatalf("spectrum length %d, want %d", len(spec), L)
	}
	for l, v := range spec {
		if v != 0 {
			t.Errorf("degree %d: empty-series power %v, want 0", l, v)
		}
	}
	bands := exaclim.DefaultArchivePolicy().PlanBands(spec)
	if want := exaclim.UniformArchiveBands(L, exaclim.FP16); len(bands) != 1 || bands[0] != want[0] {
		t.Errorf("bands planned from the zero spectrum = %v, want %v", bands, want)
	}
}

// TestPublicPerformanceModel checks the performance model beside the
// public emulator types it prices; the model itself is not part of the
// facade.
func TestPublicPerformanceModel(t *testing.T) {
	machines := cluster.Machines()
	if len(machines) != 4 {
		t.Fatalf("expected the paper's 4 systems, got %d", len(machines))
	}
	for _, m := range machines {
		r := cluster.Predict(m, 1024, 8390000, cluster.DefaultTile, exaclim.DPHP, cluster.DefaultPolicy())
		if r.PFlops < 50 || r.PFlops > 1000 {
			t.Errorf("%s: implausible prediction %.1f PF", m.Name, r.PFlops)
		}
	}
}

// TestPublicEnsembleCampaign exercises the documented campaign workflow:
// concurrent members across two scenarios, streamed, with per-member
// determinism against the serial path.
func TestPublicEnsembleCampaign(t *testing.T) {
	gen, err := exaclim.NewSynthetic(exaclim.SyntheticConfig{
		Grid: exaclim.GridForBandLimit(16), L: 16, Seed: 3, StartYear: 1995, StepsPerDay: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := gen.Run(2 * exaclim.DaysPerYear)
	model, err := exaclim.Train([][]exaclim.Field{sim}, gen.AnnualRF(10, 3), 10, exaclim.Config{
		L: 10, P: 2, Variant: exaclim.DPHP, SenderConvert: true,
		Trend: exaclim.TrendOptions{StepsPerYear: exaclim.DaysPerYear, K: 2,
			RhoGrid: []float64{0.85}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mitigation := exaclim.Stabilization(1996, 360, 30)
	spec := exaclim.EnsembleSpec{
		Members: 4, Steps: 10, BaseSeed: 42,
		Scenarios: []exaclim.EnsembleScenario{
			{Name: "training"},
			{Name: "mitigation", AnnualRF: mitigation.Annual(1985, len(model.Trend.AnnualRF()))},
		},
	}
	var mu sync.Mutex
	counts := map[[2]int]int{}
	var member0 []exaclim.Field
	err = model.EmulateEnsemble(spec, func(member, scenario, tt int, f exaclim.Field) {
		mu.Lock()
		defer mu.Unlock()
		counts[[2]int{member, scenario}]++
		if member == 0 && scenario == 0 {
			member0 = append(member0, f.Copy())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != spec.Members*len(spec.Scenarios) {
		t.Fatalf("saw %d (member, scenario) pairs, want %d", len(counts), spec.Members*len(spec.Scenarios))
	}
	for key, n := range counts {
		if n != spec.Steps {
			t.Errorf("pair %v emitted %d steps, want %d", key, n, spec.Steps)
		}
	}
	want, err := model.Emulate(exaclim.MemberSeed(spec.BaseSeed, 0, 0), 0, spec.Steps)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range want {
		for pix := range want[tt].Data {
			if want[tt].Data[pix] != member0[tt].Data[pix] {
				t.Fatalf("campaign member 0 differs from serial emulation at t=%d", tt)
			}
		}
	}
}

func TestScenarios(t *testing.T) {
	h := exaclim.Historical()
	s := exaclim.Stabilization(2030, 450, 40)
	if h.RF(2100) <= s.RF(2100) {
		t.Error("stabilization should have lower end-century forcing than historical-high")
	}
}

// TestPublicStreamingTraining exercises the streaming ingest surface:
// build a source from slices, train from it, then run the emulate ->
// archive -> retrain loop through TrainFromArchive, checking the
// retrained model emulates identically to one trained on the decoded
// slices.
func TestPublicStreamingTraining(t *testing.T) {
	gen, err := exaclim.NewSynthetic(exaclim.SyntheticConfig{
		Grid: exaclim.GridForBandLimit(16), L: 16, Seed: 31, StartYear: 1990,
	})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 100
	sim := gen.Run(steps)
	rf := gen.AnnualRF(15, 3)
	cfg := exaclim.Config{
		L: 12, P: 2, Variant: exaclim.DPHP, Workers: 2,
		Trend: exaclim.TrendOptions{
			StepsPerYear: exaclim.DaysPerYear, K: 2,
			RhoGrid: []float64{0.5, 0.85},
		},
	}

	src, err := exaclim.SourceFromSlices([][]exaclim.Field{sim})
	if err != nil {
		t.Fatal(err)
	}
	if src.Realizations() != 1 || src.Steps() != steps {
		t.Fatalf("source shape %dx%d, want 1x%d", src.Realizations(), src.Steps(), steps)
	}
	model, err := exaclim.TrainFrom(src, rf, 15, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Archive a short campaign from the model, then retrain from it.
	var buf bytes.Buffer
	w, err := exaclim.NewArchiveWriter(&buf, exaclim.ArchiveHeader{
		Grid: model.Grid, L: cfg.L, Members: 2, Scenarios: 1, Steps: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := exaclim.EnsembleSpec{Members: 2, Steps: 60, BaseSeed: 5}
	if err := model.EmulateEnsemble(spec, func(m, s, tt int, f exaclim.Field) {
		if err := w.AddField(m, s, tt, f); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := exaclim.NewArchiveReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	refit, err := exaclim.TrainFromArchive(r, 0, rf, 15, cfg)
	if err != nil {
		t.Fatal(err)
	}

	decoded := make([][]exaclim.Field, 2)
	for m := range decoded {
		decoded[m] = make([]exaclim.Field, 60)
		if err := r.EachField(m, 0, func(tt int, f exaclim.Field) error {
			decoded[m][tt] = f.Copy()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	sliceModel, err := exaclim.Train(decoded, rf, 15, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := refit.Emulate(9, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sliceModel.Emulate(9, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range a {
		for pix := range a[tt].Data {
			if a[tt].Data[pix] != b[tt].Data[pix] {
				t.Fatalf("retrained emulation differs at step %d pixel %d", tt, pix)
			}
		}
	}
}

// TestPublicServing exercises the serving surface: archive a campaign,
// front it with NewServer, and check field queries against direct
// archive reads and point queries against spectral point evaluation.
func TestPublicServing(t *testing.T) {
	const (
		L       = 10
		members = 2
		steps   = 20
	)
	grid := exaclim.GridForBandLimit(L)
	rng := rand.New(rand.NewSource(8))
	var buf bytes.Buffer
	w, err := exaclim.NewArchiveWriter(&buf, exaclim.ArchiveHeader{
		Grid: grid, L: L, Members: members, Scenarios: 1, Steps: steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	packed := make([]float64, L*L)
	for m := 0; m < members; m++ {
		for ts := 0; ts < steps; ts++ {
			for i := range packed {
				packed[i] = rng.NormFloat64()
			}
			if err := w.AddPacked(m, 0, ts, packed); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := exaclim.NewArchiveReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := exaclim.NewServer(r, nil, exaclim.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Field queries are byte-identical to direct archive reads.
	want, err := r.ReadField(1, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.Field(context.Background(), 1, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for p := range want.Data {
		if got[p] != want.Data[p] {
			t.Fatalf("served field pixel %d: %g != %g", p, got[p], want.Data[p])
		}
	}

	// Point queries agree with the synthesized pixel and with the
	// point-evaluation primitive.
	i, j := grid.NLat/2, 3
	series, err := srv.PointSeries(context.Background(), 1, 0, grid.Latitude(i), grid.LongitudeDeg(j), 0, steps)
	if err != nil {
		t.Fatal(err)
	}
	ev := sht.NewPointEvaluator(L, grid.Colatitude(i), grid.Longitude(j))
	for ts := 0; ts < steps; ts++ {
		f, err := r.ReadField(1, 0, ts)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(series[ts] - f.At(i, j)); diff > 1e-10*(1+math.Abs(f.At(i, j))) {
			t.Fatalf("point series t=%d: %g vs pixel %g", ts, series[ts], f.At(i, j))
		}
		pk, err := r.ReadPacked(1, 0, ts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(series[ts] - ev.EvalPacked(pk)); diff > 1e-12*(1+math.Abs(series[ts])) {
			t.Fatalf("PointEvaluator t=%d: %g vs series %g", ts, ev.EvalPacked(pk), series[ts])
		}
	}

	// Ensemble statistics and the HTTP handler respond.
	mean, spread, err := srv.EnsembleStats(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(mean) != grid.Points() || len(spread) != grid.Points() {
		t.Fatalf("stats lengths %d/%d, want %d", len(mean), len(spread), grid.Points())
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	var info exaclim.InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.L != L || info.Members != members {
		t.Fatalf("info = %+v", info)
	}
	if st := srv.Stats(); st.Requests == 0 || st.FieldLoads == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}
