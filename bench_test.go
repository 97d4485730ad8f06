package exaclim_test

// One benchmark per table and figure of the paper's evaluation section
// (the index is internal/experiments). Each benchmark executes the same
// experiment generator used by cmd/repro, so `go test -bench=.`
// regenerates the full evaluation and reports its cost.
//
// Science benchmarks (Fig2, Fig4) run the real pipeline end-to-end on
// the synthetic-ERA5 substitute; performance benchmarks (Fig5..Fig8,
// Table1) evaluate the calibrated machine model at paper scale; Runtime
// executes the real mixed-precision task runtime on this host.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"exaclim"
	"exaclim/internal/cluster"
	"exaclim/internal/experiments"
	"exaclim/internal/tile"
)

func reportRows(b *testing.B, t experiments.Table) {
	b.ReportMetric(float64(len(t.Rows)), "rows")
}

// BenchmarkFig1_CostLandscape regenerates the emulator cost landscape
// (paper Fig. 1).
func BenchmarkFig1_CostLandscape(b *testing.B) {
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig1()
	}
	reportRows(b, t)
}

// BenchmarkFig2_HourlyEmulation trains on sub-daily synthetic ERA5 and
// emulates (paper Fig. 2).
func BenchmarkFig2_HourlyEmulation(b *testing.B) {
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiments.Fig2(experiments.DefaultHourly())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, t)
}

// BenchmarkFig4_PrecisionVariants runs the daily pipeline under all four
// Cholesky precision variants (paper Fig. 4).
func BenchmarkFig4_PrecisionVariants(b *testing.B) {
	cfg := experiments.DefaultDaily()
	cfg.Years = 1
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, t)
}

// BenchmarkFig5_ConversionPolicy compares sender- and receiver-side
// precision conversion on 128 Summit nodes (paper Fig. 5).
func BenchmarkFig5_ConversionPolicy(b *testing.B) {
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig5()
	}
	reportRows(b, t)
}

// BenchmarkFig6_Summit2048 sweeps matrix sizes and variants on 2,048
// Summit nodes (paper Fig. 6).
func BenchmarkFig6_Summit2048(b *testing.B) {
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig6()
	}
	// Report the headline numbers as metrics.
	dp := cluster.Predict(cluster.Summit(), 2048, 8390000, cluster.DefaultTile, tile.VariantDP, cluster.DefaultPolicy())
	hp := cluster.Predict(cluster.Summit(), 2048, 8390000, cluster.DefaultTile, tile.VariantDPHP, cluster.DefaultPolicy())
	b.ReportMetric(dp.PctOfDPPeak*100, "DP_pct_peak")
	b.ReportMetric(dp.Seconds/hp.Seconds, "DPHP_speedup")
	reportRows(b, t)
}

// BenchmarkFig7_Scaling runs the weak- and strong-scaling study on
// Summit (paper Fig. 7).
func BenchmarkFig7_Scaling(b *testing.B) {
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig7()
	}
	reportRows(b, t)
}

// BenchmarkFig8_LargestRuns evaluates the flagship runs on all four
// systems (paper Fig. 8).
func BenchmarkFig8_LargestRuns(b *testing.B) {
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig8()
	}
	fro := cluster.Predict(cluster.Frontier(), 9025, 27240000, cluster.DefaultTile, tile.VariantDPHP, cluster.DefaultPolicy())
	b.ReportMetric(fro.PFlops, "Frontier_PF")
	reportRows(b, t)
}

// BenchmarkTable1_CrossSystem reproduces the DP/HP comparison on 1,024
// nodes of each system (paper Table I).
func BenchmarkTable1_CrossSystem(b *testing.B) {
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Table1()
	}
	reportRows(b, t)
}

// BenchmarkStorage_Savings evaluates the petabyte-savings analysis
// (paper Sections I and VI).
func BenchmarkStorage_Savings(b *testing.B) {
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Storage()
	}
	reportRows(b, t)
}

// ensembleBench caches one trained model across benchmark iterations so
// BenchmarkEnsemble_Members times generation, not training.
var ensembleBench struct {
	once  sync.Once
	model *exaclim.Model
	err   error
}

func ensembleBenchModel(b *testing.B) *exaclim.Model {
	ensembleBench.once.Do(func() {
		gen, err := exaclim.NewSynthetic(exaclim.SyntheticConfig{
			Grid: exaclim.GridForBandLimit(24), L: 24, Seed: 5, StartYear: 1990, StepsPerDay: 1,
		})
		if err != nil {
			ensembleBench.err = err
			return
		}
		sim := gen.Run(2 * exaclim.DaysPerYear)
		ensembleBench.model, ensembleBench.err = exaclim.Train(
			[][]exaclim.Field{sim}, gen.AnnualRF(15, 3), 15,
			exaclim.Config{
				L: 16, P: 2, Variant: exaclim.DPHP, SenderConvert: true,
				Trend: exaclim.TrendOptions{
					StepsPerYear: exaclim.DaysPerYear, K: 2,
					RhoGrid: []float64{0.5, 0.85},
				},
			})
	})
	if ensembleBench.err != nil {
		b.Fatal(ensembleBench.err)
	}
	return ensembleBench.model
}

// BenchmarkEnsemble_Members tracks the tentpole speedup of the
// scenario-parallel ensemble engine: `serial` loops members through
// Emulate one at a time (the pre-engine workflow), `parallel` streams
// the same members (identical seeds, identical output) concurrently
// through EmulateEnsemble.
func BenchmarkEnsemble_Members(b *testing.B) {
	model := ensembleBenchModel(b)
	const members, steps = 8, 30
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for m := 0; m < members; m++ {
				if _, err := model.Emulate(exaclim.MemberSeed(1, m, 0), 0, steps); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(members*steps)*float64(b.N)/b.Elapsed().Seconds(), "fields/s")
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			err := model.EmulateEnsemble(
				exaclim.EnsembleSpec{Members: members, Steps: steps, BaseSeed: 1},
				func(member, scenario, t int, f exaclim.Field) {})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(members*steps)*float64(b.N)/b.Elapsed().Seconds(), "fields/s")
	})
}

// replayBench caches one archived campaign across benchmark iterations
// so the replay and retraining benchmarks time decoding and training,
// not emulation.
var replayBench struct {
	once sync.Once
	data []byte
	rf   []float64
	lead int
	err  error
}

const (
	replayBenchMembers = 6
	replayBenchSteps   = 64
)

func replayBenchReader(b *testing.B) *exaclim.ArchiveReader {
	replayBench.once.Do(func() {
		model := ensembleBenchModel(b)
		replayBench.rf = model.Trend.AnnualRF()
		replayBench.lead = model.Trend.Lead
		var buf bytes.Buffer
		w, err := exaclim.NewArchiveWriter(&buf, exaclim.ArchiveHeader{
			Grid: model.Grid, L: model.Cfg.L,
			Members: replayBenchMembers, Scenarios: 1, Steps: replayBenchSteps,
			ChunkSteps: 16,
		})
		if err != nil {
			replayBench.err = err
			return
		}
		spec := exaclim.EnsembleSpec{Members: replayBenchMembers, Steps: replayBenchSteps, BaseSeed: 3}
		err = model.EmulateEnsemble(spec, func(member, scenario, t int, f exaclim.Field) {
			if err := w.AddField(member, scenario, t, f); err != nil {
				panic(err)
			}
		})
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			replayBench.err = err
			return
		}
		replayBench.data = buf.Bytes()
	})
	if replayBench.err != nil {
		b.Fatal(replayBench.err)
	}
	r, err := exaclim.NewArchiveReader(bytes.NewReader(replayBench.data), int64(len(replayBench.data)))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkReplay_Parallel tracks the tentpole speedup of the sharded
// reader: `serial` replays every member series one after another through
// one EachField loop (the pre-refactor workflow, where a single chunk
// cache serialized all decoding), `parallel` fans the same series out
// over independent Series cursors, one goroutine each. On >= 4-core
// hosts the parallel decode throughput should be >= 2x serial; this
// container may have fewer cores, so read the ratio there.
func BenchmarkReplay_Parallel(b *testing.B) {
	r := replayBenchReader(b)
	fields := replayBenchMembers * replayBenchSteps
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for m := 0; m < replayBenchMembers; m++ {
				if err := r.EachField(m, 0, func(t int, f exaclim.Field) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(fields)*float64(b.N)/b.Elapsed().Seconds(), "fields/s")
	})
	b.Run("parallel", func(b *testing.B) {
		grid := r.Header().Grid
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errs := make([]error, replayBenchMembers)
			for m := 0; m < replayBenchMembers; m++ {
				wg.Add(1)
				go func(m int) {
					defer wg.Done()
					cur, err := r.Series(m, 0)
					if err != nil {
						errs[m] = err
						return
					}
					f := exaclim.Field{Grid: grid, Data: make([]float64, grid.Points())}
					for t := 0; t < replayBenchSteps; t++ {
						if err := cur.ReadFieldInto(f, t); err != nil {
							errs[m] = err
							return
						}
					}
				}(m)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(fields)*float64(b.N)/b.Elapsed().Seconds(), "fields/s")
	})
}

// BenchmarkTrainFromArchive times the archive-backed training path: the
// campaign streams through the trend and residual passes one field at a
// time per worker, never materialized. fields/s counts decoded fields
// (two passes over members x steps).
func BenchmarkTrainFromArchive(b *testing.B) {
	r := replayBenchReader(b)
	cfg := exaclim.Config{
		L: 16, P: 2, Variant: exaclim.DPHP, SenderConvert: true,
		Trend: exaclim.TrendOptions{
			StepsPerYear: exaclim.DaysPerYear, K: 2,
			RhoGrid: []float64{0.5, 0.85},
		},
	}
	for i := 0; i < b.N; i++ {
		if _, err := exaclim.TrainFromArchive(r, 0, replayBench.rf, replayBench.lead, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2*replayBenchMembers*replayBenchSteps)*float64(b.N)/b.Elapsed().Seconds(), "fields/s")
}

// BenchmarkArchive_AddField times the archive write path the way a
// campaign drives it — a grid field in, analysis + band quantization +
// chunk append out — at the batch pipeline's band limit (L=32), with the
// bytes discarded so the number is the encode cost. The first field,
// which builds the writer's plan and its analysis table, is added
// outside the timed region. Tracked by the CI bench-trend comparison.
func BenchmarkArchive_AddField(b *testing.B) {
	const L = 32
	grid := exaclim.GridForBandLimit(L)
	// A smooth field: its decaying spectrum keeps FP16 bands in range.
	f := exaclim.Field{Grid: grid, Data: make([]float64, grid.Points())}
	for i := 0; i < grid.NLat; i++ {
		sinT, cosT := math.Sincos(grid.Colatitude(i))
		for j := 0; j < grid.NLon; j++ {
			f.Data[i*grid.NLon+j] = math.Exp(0.8*sinT*math.Cos(grid.Longitude(j))) * math.Cos(2*cosT)
		}
	}
	w, err := exaclim.NewArchiveWriter(io.Discard, exaclim.ArchiveHeader{
		Grid: grid, L: L, Members: 1, Scenarios: 1, Steps: b.N + 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AddField(0, 0, 0, f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.AddField(0, 0, i+1, f); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "fields/s")
}

// BenchmarkRuntime_TileCholesky executes the real task runtime and
// mixed-precision solver on this host (paper Fig. 3 / Section III
// mechanics).
func BenchmarkRuntime_TileCholesky(b *testing.B) {
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Runtime()
	}
	reportRows(b, t)
}

// BenchmarkAblation_Accuracy sweeps factor accuracy across variants (the
// numerical side of Fig. 4).
func BenchmarkAblation_Accuracy(b *testing.B) {
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.MixedPrecisionAccuracy(int64(i))
	}
	reportRows(b, t)
}

// BenchmarkAblation_Energy evaluates energy-to-solution across variants
// and machines (the power claim of Section III-D).
func BenchmarkAblation_Energy(b *testing.B) {
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Energy()
	}
	reportRows(b, t)
}

// BenchmarkAblation_Extremes validates emulated tail behaviour against
// the simulation (Section I's extremes motivation).
func BenchmarkAblation_Extremes(b *testing.B) {
	cfg := experiments.DefaultDaily()
	cfg.Years = 1
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiments.Extremes(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, t)
}

// serveBenchServer fronts the cached replay archive with a query server
// and an HTTP listener — the load-generator fixture for the serving
// benchmarks.
func serveBenchServer(b *testing.B, cfg exaclim.ServeConfig) (*exaclim.Server, *httptest.Server) {
	r := replayBenchReader(b)
	s, err := exaclim.NewServer(r, nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	b.Cleanup(hs.Close)
	return s, hs
}

// BenchmarkServe_Concurrent is the serving-subsystem load generator:
// full-field HTTP requests cycling over every (member, t) of the
// archived campaign, serial vs parallel clients. After the first epoch
// the working set is cache-resident, so this measures the hot serving
// path (cache hit + JSON encoding + transport), the regime a popular
// field sees; req/s is the headline metric and the parallel/serial
// ratio the scaling story.
func BenchmarkServe_Concurrent(b *testing.B) {
	get := func(client *http.Client, url string) error {
		resp, err := client.Get(url)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %s", resp.Status)
		}
		return err
	}
	urlFor := func(base string, i int) string {
		return fmt.Sprintf("%s/v1/field?member=%d&t=%d",
			base, i%replayBenchMembers, (i/replayBenchMembers)%replayBenchSteps)
	}
	b.Run("serial", func(b *testing.B) {
		_, hs := serveBenchServer(b, exaclim.ServeConfig{})
		client := hs.Client()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := get(client, urlFor(hs.URL, i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
	b.Run("parallel", func(b *testing.B) {
		s, hs := serveBenchServer(b, exaclim.ServeConfig{})
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			client := hs.Client()
			for pb.Next() {
				i := int(next.Add(1))
				if err := get(client, urlFor(hs.URL, i)); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		st := s.Stats()
		b.ReportMetric(float64(st.FieldLoads), "decodes")
	})
}

// BenchmarkServe_Traced prices the request tracer on the hot serving
// path: the same cache-resident full-field load as Serve_Concurrent,
// `bare` in the default configuration (metrics on, no tracer),
// `sampled` with head sampling at 100% — every request captures a span
// tree into the trace store, the most expensive tracing configuration
// there is. The acceptance bar is sampled within 5% of bare req/s.
func BenchmarkServe_Traced(b *testing.B) {
	get := func(client *http.Client, url string) error {
		resp, err := client.Get(url)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %s", resp.Status)
		}
		return err
	}
	run := func(b *testing.B, cfg exaclim.ServeConfig) {
		_, hs := serveBenchServer(b, cfg)
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			client := hs.Client()
			for pb.Next() {
				i := int(next.Add(1))
				url := fmt.Sprintf("%s/v1/field?member=%d&t=%d",
					hs.URL, i%replayBenchMembers, (i/replayBenchMembers)%replayBenchSteps)
				if err := get(client, url); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	}
	b.Run("bare", func(b *testing.B) {
		run(b, exaclim.ServeConfig{})
	})
	b.Run("sampled", func(b *testing.B) {
		run(b, exaclim.ServeConfig{TraceSampleRate: 1})
	})
}

// pointBench caches a high-resolution (L=64) archive so the point-query
// benchmark measures serving cost, not fixture construction.
var pointBench struct {
	once sync.Once
	data []byte
	err  error
}

const (
	pointBenchL     = 64
	pointBenchSteps = 32
)

func pointBenchReader(b *testing.B) *exaclim.ArchiveReader {
	pointBench.once.Do(func() {
		grid := exaclim.GridForBandLimit(pointBenchL)
		var buf bytes.Buffer
		w, err := exaclim.NewArchiveWriter(&buf, exaclim.ArchiveHeader{
			Grid: grid, L: pointBenchL, Members: 1, Scenarios: 1, Steps: pointBenchSteps,
		})
		if err != nil {
			pointBench.err = err
			return
		}
		rng := rand.New(rand.NewSource(17))
		packed := make([]float64, pointBenchL*pointBenchL)
		for t := 0; t < pointBenchSteps; t++ {
			for i := range packed {
				packed[i] = rng.NormFloat64()
			}
			if err := w.AddPacked(0, 0, t, packed); err != nil {
				pointBench.err = err
				return
			}
		}
		if err := w.Close(); err != nil {
			pointBench.err = err
			return
		}
		pointBench.data = buf.Bytes()
	})
	if pointBench.err != nil {
		b.Fatal(pointBench.err)
	}
	r, err := exaclim.NewArchiveReader(bytes.NewReader(pointBench.data), int64(len(pointBench.data)))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkServe_PointSeries is the point-query cost claim at L=64: the
// `point` path answers a full time series through O(L^2) spectral
// evaluation on streamed packed coefficients, the `grid` path is the
// pre-serve workflow — synthesize every full field and index one pixel.
// The acceptance bar is point >= 10x cheaper per series.
func BenchmarkServe_PointSeries(b *testing.B) {
	const lat, lon = 37.5, 142.0
	b.Run("point", func(b *testing.B) {
		r := pointBenchReader(b)
		s, err := exaclim.NewServer(r, nil, exaclim.ServeConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.PointSeries(context.Background(), 0, 0, lat, lon, 0, pointBenchSteps); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(pointBenchSteps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
	})
	b.Run("grid", func(b *testing.B) {
		r := pointBenchReader(b)
		grid := r.Header().Grid
		theta := (90 - lat) * math.Pi / 180
		i := int(theta / math.Pi * float64(grid.NLat-1))
		j := int(lon / 360 * float64(grid.NLon))
		if _, err := r.ReadField(0, 0, 0); err != nil { // warm the synthesis plan
			b.Fatal(err)
		}
		b.ResetTimer()
		var sink float64
		for it := 0; it < b.N; it++ {
			for t := 0; t < pointBenchSteps; t++ {
				f, err := r.ReadField(0, 0, t)
				if err != nil {
					b.Fatal(err)
				}
				sink += f.At(i, j)
			}
		}
		b.ReportMetric(float64(pointBenchSteps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
		_ = sink
	})
}

// BenchmarkServe_FieldF32 prices a float32 field at L=64: the `f32` sub
// drives /v1/field?format=f32 through the handler, which decodes and
// synthesizes the float64 field and narrows each value as it encodes.
// CacheBytes:1 evicts every entry immediately, so each request pays the
// full decode+synthesis kernel.
func BenchmarkServe_FieldF32(b *testing.B) {
	b.Run("f32", func(b *testing.B) {
		s, err := exaclim.NewServer(pointBenchReader(b), nil, exaclim.ServeConfig{CacheBytes: 1})
		if err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		get := func(t int) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/field?member=0&scenario=0&t=%d&format=f32", t), nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("f32 field -> %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
		get(0) // warm plan calibration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(i % pointBenchSteps)
		}
	})
}

// BenchmarkServe_PointBatch prices /v1/points against per-point queries
// at L=64 over a full 32-step series. Every location is one weight row
// of the evaluator product (sht.Evaluator), so a batch saves the P-1
// extra cursor passes and runs its rows through the tiled kernel, eight
// decoded steps per product; it does not share a Legendre fold between
// locations on the same ring. `scattered16` is the shape the repo
// benchmark's `series` row sends (16 unrelated locations); `grid64` is
// an 8 x 8 lat/lon grid (64 rows); `per-point16` is scattered16 as 16
// PointSeries calls. Per 32-step request, `-cpu 1` on a 2-vCPU Xeon,
// three runs alternated with the one-step-per-product parent commit:
// scattered16 3.5-4.3 -> 1.9-2.5 ms, grid64 13.2-14.0 -> 5.9-8.4 ms,
// per-point16 12.1-13.4 -> 5.4-8.5 ms.
func BenchmarkServe_PointBatch(b *testing.B) {
	var gridLats, gridLons []float64
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			gridLats = append(gridLats, -70+float64(i)*20)
			gridLons = append(gridLons, 10+float64(j)*45)
		}
	}
	rng := rand.New(rand.NewSource(29))
	lats, lons := make([]float64, 16), make([]float64, 16)
	for p := range lats {
		lats[p], lons[p] = -85+170*rng.Float64(), 360*rng.Float64()
	}
	newSrv := func(b *testing.B) *exaclim.Server {
		r := pointBenchReader(b)
		s, err := exaclim.NewServer(r, nil, exaclim.ServeConfig{})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	batch := func(lats, lons []float64) func(b *testing.B) {
		return func(b *testing.B) {
			s := newSrv(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.PointsSeries(context.Background(), 0, 0, lats, lons, 0, pointBenchSteps); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(lats))*float64(b.N)/b.Elapsed().Seconds(), "series/s")
		}
	}
	b.Run("scattered16", batch(lats, lons))
	b.Run("grid64", batch(gridLats, gridLons))
	b.Run("per-point16", func(b *testing.B) {
		s := newSrv(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for p := range lats {
				if _, err := s.PointSeries(context.Background(), 0, 0, lats[p], lons[p], 0, pointBenchSteps); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(lats))*float64(b.N)/b.Elapsed().Seconds(), "series/s")
	})
}

// BenchmarkServe_BoxSeries prices /v1/box at L=64 over a full 32-step
// series: the front-end whose kernel changed most when a box mean became
// one weight row. `box4x4` is the repo benchmark's 10-degree box (four
// rings by four longitudes); `box16x32` covers 512 grid points and costs
// the same per step — the row is built per ring, the step is one dot
// product either way. Per 32-step request at `-cpu 1`, alternated with
// the parent commit's rings x longitudes evaluator: box4x4 0.82-1.03 ->
// 0.45-0.53 ms, box16x32 3.9-4.4 -> 0.58-0.68 ms; what is left is the
// range decode and building the row.
func BenchmarkServe_BoxSeries(b *testing.B) {
	for _, c := range []struct {
		name string
		box  exaclim.QueryBox
	}{
		{"box4x4", exaclim.QueryBox{LatMin: 30, LatMax: 40, LonMin: 100, LonMax: 110}},
		{"box16x32", exaclim.QueryBox{LatMin: -20, LatMax: 23, LonMin: 0, LonMax: 88}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := exaclim.NewServer(pointBenchReader(b), nil, exaclim.ServeConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.BoxSeries(context.Background(), 0, 0, c.box, 0, pointBenchSteps); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pointBenchSteps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}

// batchBench is the chunk-granular decode fixture: one 64-step series
// whose chunk size covers the whole series (ChunkSteps=64), stored
// FP16-heavy (degrees 4..64) the way planned precision tables actually
// store the high-degree tail. A 64-step query over it is the best case
// the batch path was built for: one chunk load, 64 decodes.
var batchBench struct {
	once sync.Once
	data []byte
	err  error
}

const batchBenchSteps = 64

func batchBenchReader(b *testing.B) *exaclim.ArchiveReader {
	batchBench.once.Do(func() {
		const L = pointBenchL
		grid := exaclim.GridForBandLimit(L)
		var buf bytes.Buffer
		w, err := exaclim.NewArchiveWriter(&buf, exaclim.ArchiveHeader{
			Grid: grid, L: L, Members: 1, Scenarios: 1, Steps: batchBenchSteps,
			ChunkSteps: batchBenchSteps,
			Bands: []exaclim.ArchiveBand{
				{Lo: 0, Hi: 4, Prec: exaclim.FP64},
				{Lo: 4, Hi: L, Prec: exaclim.FP16},
			},
		})
		if err != nil {
			batchBench.err = err
			return
		}
		rng := rand.New(rand.NewSource(23))
		packed := make([]float64, L*L)
		for t := 0; t < batchBenchSteps; t++ {
			for i := range packed {
				// Decaying spectrum keeps FP16 quantization in range.
				packed[i] = rng.NormFloat64() / (1 + float64(i)/64)
			}
			if err := w.AddPacked(0, 0, t, packed); err != nil {
				batchBench.err = err
				return
			}
		}
		if err := w.Close(); err != nil {
			batchBench.err = err
			return
		}
		batchBench.data = buf.Bytes()
	})
	if batchBench.err != nil {
		b.Fatal(batchBench.err)
	}
	r, err := exaclim.NewArchiveReader(bytes.NewReader(batchBench.data), int64(len(batchBench.data)))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkServe_SeriesBatchDecode is the chunk-granular batch decode
// claim: a 64-step same-chunk series query decoded through
// ReadPackedRange (`range`, one chunk load + LUT decode, what the series
// loop runs) vs step-at-a-time ReadPacked calls (`perstep`: a coordinate
// check, chunk lookup and branchy FP16 conversion per step, through the
// same decoder). The acceptance bar is range >= 1.5x.
func BenchmarkServe_SeriesBatchDecode(b *testing.B) {
	stepsPerSec := func(b *testing.B) {
		b.ReportMetric(float64(batchBenchSteps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
	}
	b.Run("perstep", func(b *testing.B) {
		r := batchBenchReader(b)
		cur, err := r.Series(0, 0)
		if err != nil {
			b.Fatal(err)
		}
		var buf []float64
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for t := 0; t < batchBenchSteps; t++ {
				buf, err = cur.ReadPacked(t, buf)
				if err != nil {
					b.Fatal(err)
				}
				sink += buf[0]
			}
		}
		stepsPerSec(b)
		_ = sink
	})
	b.Run("range", func(b *testing.B) {
		r := batchBenchReader(b)
		cur, err := r.Series(0, 0)
		if err != nil {
			b.Fatal(err)
		}
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cur.ReadPackedRange(0, batchBenchSteps, func(t int, packed []float64) error {
				sink += packed[0]
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
		stepsPerSec(b)
		_ = sink
	})
}

// BenchmarkServe_FieldGzip prices response compression on the serving
// hot path: the same cache-resident L=64 field served as JSON over real
// HTTP, identity vs gzip (BestSpeed, pooled writers). The gzip sub
// reports the measured compression ratio; the ns/op delta is what one
// request pays for the severalfold smaller body.
func BenchmarkServe_FieldGzip(b *testing.B) {
	r := pointBenchReader(b)
	s, err := exaclim.NewServer(r, nil, exaclim.ServeConfig{})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	b.Cleanup(hs.Close)
	url := hs.URL + "/v1/field?member=0&scenario=0&t=0"
	// The transport's transparent decompression is off so the gzip sub
	// measures serving cost, not client-side gunzip.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	fetch := func(gz bool) (int, error) {
		req, err := http.NewRequest("GET", url, nil)
		if err != nil {
			return 0, err
		}
		if gz {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("status %s", resp.Status)
		}
		return int(n), err
	}
	identityBytes, err := fetch(false) // also warms the cache
	if err != nil {
		b.Fatal(err)
	}
	b.Run("identity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fetch(false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gzip", func(b *testing.B) {
		gzipBytes := 0
		for i := 0; i < b.N; i++ {
			n, err := fetch(true)
			if err != nil {
				b.Fatal(err)
			}
			gzipBytes = n
		}
		b.ReportMetric(float64(identityBytes)/float64(gzipBytes), "ratio")
	})
}

// BenchmarkTrainFrom_ParallelTrend tracks the trend-pass fan-out:
// `serial` trains with one worker (single accumulator, one cursor at a
// time), `parallel` lets the trend pass fork per-realization-span
// accumulators with span-ordered merges (and the residual pass fan out
// alike). fields/s counts decoded fields across both passes. On >= 4
// core hosts parallel should approach the core count; this container
// may have fewer, so read the ratio there.
func BenchmarkTrainFrom_ParallelTrend(b *testing.B) {
	cfgFor := func(workers int) exaclim.Config {
		return exaclim.Config{
			L: 16, P: 2, Variant: exaclim.DPHP, SenderConvert: true,
			Workers: workers,
			Trend: exaclim.TrendOptions{
				StepsPerYear: exaclim.DaysPerYear, K: 2,
				RhoGrid: []float64{0.5, 0.85},
			},
		}
	}
	fields := float64(2 * replayBenchMembers * replayBenchSteps)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			r := replayBenchReader(b)
			cfg := cfgFor(bc.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exaclim.TrainFromArchive(r, 0, replayBench.rf, replayBench.lead, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(fields*float64(b.N)/b.Elapsed().Seconds(), "fields/s")
		})
	}
}

// multiScenBench caches a two-scenario archived campaign (training
// forcing + a boosted pathway) plus the forcing set naming them, so the
// multi-scenario training benchmark times the fit, not the fixture.
var multiScenBench struct {
	once sync.Once
	data []byte
	set  exaclim.PathwaySet
	lead int
	err  error
}

func multiScenBenchReader(b *testing.B) *exaclim.ArchiveReader {
	multiScenBench.once.Do(func() {
		model := ensembleBenchModel(b)
		rf := model.Trend.AnnualRF()
		boosted := make([]float64, len(rf))
		for i, v := range rf {
			boosted[i] = v + 2
		}
		set, err := exaclim.NewPathwaySet(
			exaclim.Pathway{Name: "training", Annual: rf},
			exaclim.Pathway{Name: "boosted", Annual: boosted},
		)
		if err != nil {
			multiScenBench.err = err
			return
		}
		multiScenBench.set = set
		multiScenBench.lead = model.Trend.Lead
		var buf bytes.Buffer
		w, err := exaclim.NewArchiveWriter(&buf, exaclim.ArchiveHeader{
			Grid: model.Grid, L: model.Cfg.L,
			Members: replayBenchMembers, Scenarios: 2, Steps: replayBenchSteps,
			ChunkSteps: 16,
		})
		if err != nil {
			multiScenBench.err = err
			return
		}
		spec := exaclim.EnsembleSpec{
			Members: replayBenchMembers, Steps: replayBenchSteps, BaseSeed: 7,
			Scenarios: []exaclim.EnsembleScenario{
				{Name: "training"},
				{Name: "boosted", AnnualRF: boosted},
			},
		}
		err = model.EmulateEnsemble(spec, func(member, scenario, t int, f exaclim.Field) {
			if err := w.AddField(member, scenario, t, f); err != nil {
				panic(err)
			}
		})
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			multiScenBench.err = err
			return
		}
		multiScenBench.data = buf.Bytes()
	})
	if multiScenBench.err != nil {
		b.Fatal(multiScenBench.err)
	}
	r, err := exaclim.NewArchiveReader(bytes.NewReader(multiScenBench.data), int64(len(multiScenBench.data)))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTrainFrom_MultiScenario times the scenario-aware fit: one
// TrainFromArchiveAll spans every member of both archived scenarios,
// each under its own forcing pathway. fields/s counts decoded fields
// (two passes over 2 x members x steps).
func BenchmarkTrainFrom_MultiScenario(b *testing.B) {
	r := multiScenBenchReader(b)
	cfg := exaclim.Config{
		L: 16, P: 2, Variant: exaclim.DPHP, SenderConvert: true,
		Trend: exaclim.TrendOptions{
			StepsPerYear: exaclim.DaysPerYear, K: 2,
			RhoGrid: []float64{0.5, 0.85},
		},
	}
	for i := 0; i < b.N; i++ {
		if _, err := exaclim.TrainFromArchiveAll(r, multiScenBench.set, multiScenBench.lead, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2*2*replayBenchMembers*replayBenchSteps)*float64(b.N)/b.Elapsed().Seconds(), "fields/s")
}

// liveSeriesBench caches BenchmarkEmulator_LiveSeries's model across the
// benchmark function's b.N calibration calls.
var liveSeriesBench struct {
	once  sync.Once
	model *exaclim.Model
	err   error
}

// BenchmarkEmulator_LiveSeries is the cost a cold live what-if query
// pays: one full-horizon Model.EmulateUnder (256 kept steps after the VAR
// burn-in) — the call serve's liveRange makes — on the model of
// benchmark/'s live-whatif row: L = 16, P = 2 on the L = 16 grid, two
// lag decays. us/step is per kept step; allocations are one field per
// step plus the run's fixed scratch. It is the explanation of that row's
// req_per_s, whose handler time is 97.6% this loop.
func BenchmarkEmulator_LiveSeries(b *testing.B) {
	liveSeriesBench.once.Do(func() {
		gen, err := exaclim.NewSynthetic(exaclim.SyntheticConfig{
			Grid: exaclim.GridForBandLimit(16), L: 16, Seed: 5, StartYear: 1990, StepsPerDay: 1,
		})
		if err != nil {
			liveSeriesBench.err = err
			return
		}
		liveSeriesBench.model, liveSeriesBench.err = exaclim.Train(
			[][]exaclim.Field{gen.Run(2 * exaclim.DaysPerYear)}, gen.AnnualRF(15, 3), 15,
			exaclim.Config{
				L: 16, P: 2, Variant: exaclim.DPHP, SenderConvert: true,
				Trend: exaclim.TrendOptions{StepsPerYear: exaclim.DaysPerYear, K: 2, RhoGrid: []float64{0.5, 0.85}},
			})
	})
	if liveSeriesBench.err != nil {
		b.Fatal(liveSeriesBench.err)
	}
	model := liveSeriesBench.model
	rf := model.Trend.AnnualRF()
	whatIf := make([]float64, len(rf))
	for i, v := range rf {
		whatIf[i] = v + 2
	}
	const steps = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := model.EmulateUnderForEach(whatIf, exaclim.MemberSeed(1, i, 0), 0, steps, func(int, exaclim.Field) {})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*steps), "us/step")
}

// BenchmarkServe_WhatIf times what-if serving: point time series on a
// live scenario whose forcing pathway is absent from the archive. The
// first query emulates and caches the series; steady state measures the
// hot dashboard path (cached live fields + bilinear sampling + spectral
// point evaluation for archived comparisons). req/s is the headline.
func BenchmarkServe_WhatIf(b *testing.B) {
	model := ensembleBenchModel(b)
	r := replayBenchReader(b)
	rf := model.Trend.AnnualRF()
	whatIf := make([]float64, len(rf))
	for i, v := range rf {
		whatIf[i] = v + 2
	}
	s, err := exaclim.NewServer(r, model, exaclim.ServeConfig{
		LivePathways: []exaclim.Pathway{{Name: "whatif", Annual: whatIf}},
		LiveSteps:    replayBenchSteps,
	})
	if err != nil {
		b.Fatal(err)
	}
	liveScen := r.Header().Scenarios
	const lat, lon = 37.5, 142.0
	// Warm: one emulation run fills the live series cache.
	if _, err := s.PointSeries(context.Background(), 0, liveScen, lat, lon, 0, replayBenchSteps); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		member := i % replayBenchMembers
		if _, err := s.PointSeries(context.Background(), member, liveScen, lat, lon, 0, replayBenchSteps); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	st := s.Stats()
	b.ReportMetric(float64(st.LiveLoads), "emulations")
}
