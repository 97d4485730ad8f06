package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"exaclim"
)

// writeInfo is what building an archive measured: the write-side
// numbers of the archive layer and the storage ratio of the row.
type writeInfo struct {
	Stats    exaclim.ArchiveWriterStats
	AddSec   float64 // time inside AddPacked / AddField, summed
	CloseSec float64
	Packed   bool  // written with AddPacked (else AddField)
	RawBytes int64 // what the same fields cost as float32 grids
}

func (wi writeInfo) storedPerRaw() float64 { return float64(wi.Stats.Bytes) / float64(wi.RawBytes) }

// fieldBands is the precision table of the synthetic field archive.
func fieldBands() []exaclim.ArchiveBand {
	return []exaclim.ArchiveBand{
		{Lo: 0, Hi: 8, Prec: exaclim.FP64}, {Lo: 8, Hi: 32, Prec: exaclim.FP32}, {Lo: 32, Hi: fieldL, Prec: exaclim.FP16},
	}
}

// buildFieldArchive writes the L=64 archive the four archive-backed
// serving rows read: every step is a draw from a red spectrum
// (amplitude ~ (1+l)^-1.5 over a 288 K mean), so band decode and
// synthesis see realistic magnitudes without an L=64 training run.
func buildFieldArchive(path string, seed int64) (writeInfo, error) {
	h := exaclim.ArchiveHeader{
		Grid: exaclim.GridForBandLimit(fieldL), L: fieldL,
		Members: fieldMembers, Scenarios: fieldScenarios, Steps: fieldSteps, Bands: fieldBands(),
	}
	w, err := exaclim.CreateArchive(path, h)
	if err != nil {
		return writeInfo{}, fmt.Errorf("create field archive: %w", err)
	}
	rng := rand.New(rand.NewSource(mixSeed(seed, 0xa4c1)))
	amp := make([]float64, h.Dim())
	for l := 0; l < fieldL; l++ {
		a := 10 / math.Pow(1+float64(l), 1.5)
		for p := l * l; p < (l+1)*(l+1); p++ {
			amp[p] = a
		}
	}
	wi := writeInfo{Packed: true}
	packed := make([]float64, h.Dim())
	for m := 0; m < h.Members; m++ {
		for s := 0; s < h.Scenarios; s++ {
			for t := 0; t < h.Steps; t++ {
				for p := range packed {
					packed[p] = amp[p] * rng.NormFloat64()
				}
				packed[0] += 288 * 2 * math.SqrtPi // a 288 K global mean
				t0 := time.Now()
				if err := w.AddPacked(m, s, t, packed); err != nil {
					return writeInfo{}, fmt.Errorf("add packed step: %w", err)
				}
				wi.AddSec += time.Since(t0).Seconds()
			}
		}
	}
	return finishArchive(w, h, wi)
}

// finishArchive closes the writer and fills in the measured totals.
func finishArchive(w *exaclim.ArchiveWriter, h exaclim.ArchiveHeader, wi writeInfo) (writeInfo, error) {
	t0 := time.Now()
	if err := w.Close(); err != nil {
		return writeInfo{}, fmt.Errorf("close archive: %w", err)
	}
	wi.CloseSec = time.Since(t0).Seconds()
	wi.Stats = w.Stats()
	wi.RawBytes = int64(h.Grid.Points()) * 4 * wi.Stats.Fields
	return wi, nil
}

// trained is a model with the data it was fit on.
type trained struct {
	Model    *exaclim.Model
	Ens      [][]exaclim.Field
	RF       []float64
	Lead     int
	Cfg      exaclim.Config
	GenSec   float64
	TrainSec float64
}

// trainLead and trainSpan are the forcing record every model here is
// fit under: 15 years of history before a 3-year data window.
const (
	trainLead = 15
	trainSpan = 3
)

// generateEnsemble runs the ERA5-like generator for `members` members of
// `years` daily years on the grid of band limit L.
func generateEnsemble(L, members, years int, seed int64) (*trained, error) {
	tr := &trained{Lead: trainLead}
	t0 := time.Now()
	for m := 0; m < members; m++ {
		gen, err := exaclim.NewSynthetic(exaclim.SyntheticConfig{
			Grid: exaclim.GridForBandLimit(L), L: L, Seed: seed, Member: m, StartYear: 1990, StepsPerDay: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("era5 generator: %w", err)
		}
		tr.Ens = append(tr.Ens, gen.Run(years*exaclim.DaysPerYear))
		tr.RF = gen.AnnualRF(trainLead, trainSpan)
	}
	tr.GenSec = time.Since(t0).Seconds()
	return tr, nil
}

// train fits the emulator (the ensembleBenchModel recipe of the root
// bench_test.go, at the row's band limit and VAR order).
func (tr *trained) train(L, P int) error {
	tr.Cfg = exaclim.Config{
		L: L, P: P, Variant: exaclim.DPHP, SenderConvert: true,
		Trend: exaclim.TrendOptions{StepsPerYear: exaclim.DaysPerYear, K: 2, RhoGrid: []float64{0.5, 0.85}},
	}
	t0 := time.Now()
	m, err := exaclim.Train(tr.Ens, tr.RF, tr.Lead, tr.Cfg)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	tr.TrainSec = time.Since(t0).Seconds()
	tr.Model = m
	return nil
}

// whatIf returns n forcing pathways the model was not trained on: the
// training record shifted up by 1, 2, ... W/m^2.
func (tr *trained) whatIf(n int) []exaclim.Pathway {
	out := make([]exaclim.Pathway, n)
	for i := range out {
		annual := make([]float64, len(tr.RF))
		for y, v := range tr.RF {
			annual[y] = v + float64(i+1)
		}
		out[i] = exaclim.Pathway{Name: fmt.Sprintf("whatif-%d", i+1), Annual: annual}
	}
	return out
}

// buildLiveArchive trains the what-if model and archives a short
// campaign it emulated; the live scenarios are served beside it.
func buildLiveArchive(path string, seed int64) (*trained, writeInfo, error) {
	tr, err := generateEnsemble(liveL, 1, 2, seed)
	if err != nil {
		return nil, writeInfo{}, err
	}
	if err := tr.train(liveL, 2); err != nil {
		return nil, writeInfo{}, err
	}
	h := exaclim.ArchiveHeader{
		Grid: tr.Model.Grid, L: liveL, Members: liveMembers, Scenarios: 1, Steps: liveArchSteps,
		Bands: exaclim.UniformArchiveBands(liveL, exaclim.FP32),
	}
	w, err := exaclim.CreateArchive(path, h)
	if err != nil {
		return nil, writeInfo{}, fmt.Errorf("create live archive: %w", err)
	}
	// One worker: AddField wants each series' steps in order and the
	// callback's time is summed without a lock.
	var wi writeInfo
	var addErr error
	spec := exaclim.EnsembleSpec{Members: liveMembers, Steps: liveArchSteps, BaseSeed: seed, Workers: 1}
	err = tr.Model.EmulateEnsemble(spec, func(member, scenario, t int, f exaclim.Field) {
		t0 := time.Now()
		if err := w.AddField(member, scenario, t, f); err != nil && addErr == nil {
			addErr = err
		}
		wi.AddSec += time.Since(t0).Seconds()
	})
	if err == nil {
		err = addErr
	}
	if err != nil {
		return nil, writeInfo{}, fmt.Errorf("emulate into live archive: %w", err)
	}
	wi, err = finishArchive(w, h, wi)
	return tr, wi, err
}

// rowData is what a serving row's set-up builds before any server
// starts: the archive file and, on live rows, the model.
type rowData struct {
	W     *workload
	Seed  int64
	Path  string
	Write writeInfo
	Live  *trained
}

func buildRowData(w *workload, seed int64, outDir string) (*rowData, error) {
	d := &rowData{W: w, Seed: seed, Path: filepath.Join(outDir, w.Name+".exa")}
	var err error
	if w.Live {
		d.Live, d.Write, err = buildLiveArchive(d.Path, seed)
	} else {
		d.Write, err = buildFieldArchive(d.Path, seed)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// serveEnv is one running server over a row's archive, listening on a
// loopback port, with the benchmark's own observers around it when the
// run is traced.
type serveEnv struct {
	Data   *rowData
	Shape  shape
	Grid   exaclim.Grid
	Reader *exaclim.ArchiveReader
	Srv    *exaclim.Server
	Cfg    exaclim.ServeConfig
	Base   string // http://127.0.0.1:port

	file   *os.File
	hs     *http.Server
	served chan error

	// Traced runs only.
	IO    *tracedReaderAt
	Spans *spanHandler
	Log   *logSink
}

// startServer opens the archive through NewArchiveReader, builds the
// server with the row's Config and starts listening. With traced set,
// the file sits under a timing io.ReaderAt, the handler under a span
// recorder, every request is trace-sampled and the request log is kept
// in memory.
func startServer(d *rowData, traced bool) (*serveEnv, error) {
	e := &serveEnv{Data: d}
	f, err := os.Open(d.Path)
	if err != nil {
		return nil, fmt.Errorf("open archive: %w", err)
	}
	e.file = f
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("stat archive: %w", err)
	}
	var ra io.ReaderAt = f
	if traced {
		e.IO = &tracedReaderAt{ra: f}
		ra = e.IO
	}
	e.Reader, err = exaclim.NewArchiveReader(ra, fi.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("read archive: %w", err)
	}
	h := e.Reader.Header()
	e.Grid = h.Grid
	e.Shape = shape{Members: h.Members, Scenarios: h.Scenarios, Steps: h.Steps}
	e.Cfg = exaclim.ServeConfig{CacheBytes: d.W.CacheBytes}
	var model *exaclim.Model
	if d.Live != nil {
		model = d.Live.Model
		e.Cfg.LivePathways = d.Live.whatIf(livePathways)
		e.Cfg.LiveSteps = liveSteps
		e.Cfg.BaseSeed = d.Seed
		e.Shape.LiveScen, e.Shape.LiveSteps = livePathways, liveSteps
	}
	if traced {
		e.Log = &logSink{}
		e.Cfg.TraceSampleRate = 1
		e.Cfg.RequestLog = e.Log
	}
	e.Srv, err = exaclim.NewServer(e.Reader, model, e.Cfg)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("new server: %w", err)
	}
	handler := e.Srv.Handler()
	if traced {
		e.Spans = &spanHandler{next: handler}
		handler = e.Spans
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.Base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: handler}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops the listener, waits for the serve loop to return and
// releases the archive file.
func (e *serveEnv) close() {
	e.hs.Close()
	<-e.served
	e.file.Close()
}
