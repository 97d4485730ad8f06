package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"exaclim"
)

// passResult is one pass of the batch pipeline.
type passResult struct {
	TrainS, EmulateS, PlanS, WriteS, ReplayS float64
	PassS                                    float64 // train through replay, checks excluded
	Digest                                   uint64  // of every emulated value, in campaign order
	Write                                    writeInfo
	IO                                       ioCounters
	Reads                                    []ioSpan // traced passes: the replay's chunk reads
	Checked, Bad                             int
	FirstBad                                 error
	Model                                    *trained
}

const pipeFields = pipeMembers * pipeScenarios * pipeSteps

// runPass runs the campaign once: train, emulate the ensemble into
// memory, plan the bands from its spectrum, archive every field, replay
// every series pipeReplays times, then check the replay against what
// was emitted.
func runPass(tr *trained, opt options, traced bool) (*passResult, error) {
	pr := &passResult{Model: tr}
	start := time.Now()
	if err := tr.train(pipeL, pipeP); err != nil {
		return nil, err
	}
	pr.TrainS = tr.TrainSec
	model := tr.Model

	// Emulate: series (member, scenario) is fields[member*pipeScenarios+scenario].
	t0 := time.Now()
	fields := make([][]exaclim.Field, pipeMembers*pipeScenarios)
	for i := range fields {
		fields[i] = make([]exaclim.Field, pipeSteps)
	}
	spec := exaclim.EnsembleSpec{Members: pipeMembers, Steps: pipeSteps, BaseSeed: opt.Seed,
		Scenarios: []exaclim.EnsembleScenario{{Name: "training"}, {Name: "whatif", AnnualRF: tr.whatIf(1)[0].Annual}}}
	err := model.EmulateEnsemble(spec, func(member, scenario, t int, f exaclim.Field) {
		// Steps of one series arrive in order on one goroutine at a time,
		// and series never share a slot, so this needs no lock.
		fields[member*pipeScenarios+scenario][t] = exaclim.Field{Grid: f.Grid, Data: append([]float64(nil), f.Data...)}
	})
	if err != nil {
		return nil, fmt.Errorf("emulate ensemble: %w", err)
	}
	pr.EmulateS = time.Since(t0).Seconds()

	// Plan bands and write.
	t0 = time.Now()
	plan, err := exaclim.NewSHT(model.Grid, pipeL)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	policy := exaclim.DefaultArchivePolicy()
	h := exaclim.ArchiveHeader{
		Grid: model.Grid, L: pipeL, Members: pipeMembers, Scenarios: pipeScenarios, Steps: pipeSteps,
		Bands: policy.PlanBands(exaclim.MeanPowerSpectrum(plan, fields[0])), MaxRelErr: policy.MaxRelErr,
	}
	pr.PlanS = time.Since(t0).Seconds()
	t0 = time.Now()
	path := filepath.Join(opt.OutDir, "batch-pipeline.exa")
	w, err := exaclim.CreateArchive(path, h)
	if err != nil {
		return nil, fmt.Errorf("create archive: %w", err)
	}
	var wi writeInfo
	for i, series := range fields {
		for t, f := range series {
			a0 := time.Now()
			if err := w.AddField(i/pipeScenarios, i%pipeScenarios, t, f); err != nil {
				return nil, fmt.Errorf("add field: %w", err)
			}
			wi.AddSec += time.Since(a0).Seconds()
		}
	}
	if pr.Write, err = finishArchive(w, h, wi); err != nil {
		return nil, err
	}
	pr.WriteS = time.Since(t0).Seconds()

	// Replay through a reader over the file (under the timing ReaderAt
	// when traced).
	t0 = time.Now()
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open archive: %w", err)
	}
	defer file.Close()
	timed := &tracedReaderAt{ra: file}
	var ra io.ReaderAt = file
	if traced {
		ra = timed
	}
	reader, err := exaclim.NewArchiveReader(ra, pr.Write.Stats.Bytes)
	if err != nil {
		return nil, fmt.Errorf("read archive: %w", err)
	}
	replayed := 0
	for k := 0; k < pipeReplays; k++ {
		for i := range fields {
			err := reader.EachField(i/pipeScenarios, i%pipeScenarios, func(int, exaclim.Field) error { replayed++; return nil })
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
		}
	}
	pr.ReplayS = time.Since(t0).Seconds()
	pr.PassS = time.Since(start).Seconds()
	pr.IO, pr.Reads = timed.snapshot(), timed.spansSince(0)
	if replayed != pipeReplays*pipeFields {
		return nil, fmt.Errorf("replayed %d fields, want %d", replayed, pipeReplays*pipeFields)
	}

	// Checks, outside the timed pass. Digest: the campaign is a pure
	// function of the seed, so every pass must emit the same bits.
	dg := fnv.New64a()
	var b [8]byte
	for _, series := range fields {
		for _, f := range series {
			for _, v := range f.Data {
				bits := math.Float64bits(v)
				for k := range b {
					b[k] = byte(bits >> (8 * k))
				}
				dg.Write(b[:])
			}
		}
	}
	pr.Digest = dg.Sum64()
	// Replay against what was emitted, on the sampled fields: the
	// archive keeps the part of a field below its band limit, so the
	// reference is the emitted field projected there, and the error left
	// is quantization, which the header's budget bounds.
	for i, series := range fields {
		for t, f := range series {
			if !sampled(opt.Seed, uint64(i), t) {
				continue
			}
			pr.Checked++
			got, err := reader.ReadField(i/pipeScenarios, i%pipeScenarios, t)
			if err != nil {
				return nil, fmt.Errorf("read back: %w", err)
			}
			ref := plan.Synthesize(plan.Analyze(f))
			if e := exaclim.FieldReconError(ref, got); !(e.RelL2 <= h.MaxRelErr) {
				pr.Bad++
				if pr.FirstBad == nil {
					pr.FirstBad = fmt.Errorf("series %d step %d: relative error %g over the header's budget %g", i, t, e.RelL2, h.MaxRelErr)
				}
			}
		}
	}
	if pr.Write.Stats.MaxRelErr > h.MaxRelErr {
		pr.Bad++
		pr.FirstBad = fmt.Errorf("writer measured max relative error %g over the header's budget %g", pr.Write.Stats.MaxRelErr, h.MaxRelErr)
	}
	return pr, nil
}

// runPipeline is the batch-pipeline row: passes run back to back for the
// window, every metric is the median pass.
func runPipeline(w *workload, opt options) (*result, error) {
	res := newResult(w, opt)
	// Set-up is data generation: the training ensemble.
	var tr *trained
	var setup []float64
	for i := 0; i < opt.SetupRepeats; i++ {
		t0 := time.Now()
		var err error
		if tr, err = generateEnsemble(pipeL, pipeTrainMem, pipeTrainYrs, opt.Seed); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	u0 := readUsage()
	var passes []*passResult
	start := time.Now()
	for {
		pr, err := runPass(tr, opt, opt.Trace)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pr)
		// Start another pass only if it should end inside the window.
		if time.Since(start)+time.Duration(pr.PassS*float64(time.Second))/2 > opt.Window && len(passes) >= 2 {
			break
		}
	}
	u := readUsage().sub(u0)

	col := func(f func(*passResult) float64) []float64 {
		out := make([]float64, len(passes))
		for i, p := range passes {
			out[i] = f(p)
		}
		return out
	}
	passS := col(func(p *passResult) float64 { return p.PassS })
	last := passes[len(passes)-1]
	for _, p := range passes {
		res.Attempted += pipeFields
		res.Failed += p.Bad
		if p.FirstBad != nil && len(res.Problems) == 0 {
			res.problem("replay check: %v", p.FirstBad)
		}
		if p.Digest != passes[0].Digest {
			res.Failed = res.Attempted
			res.problem("campaign digest %x differs from the first pass's %x", p.Digest, passes[0].Digest)
		}
		res.Extra["oracle_checked"] += float64(p.Checked)
	}
	res.Extra["passes"] = float64(len(passes))
	res.Extra["pipeline_s_min"], res.Extra["pipeline_s_max"] = minMax(passS)

	row := map[string]float64{
		"pipeline_s":                 median(passS),
		"train_s":                    median(col(func(p *passResult) float64 { return p.TrainS })),
		"emulate_fields_per_s":       pipeFields / median(col(func(p *passResult) float64 { return p.EmulateS })),
		"archive_write_fields_per_s": pipeFields / median(col(func(p *passResult) float64 { return p.WriteS })),
		"replay_fields_per_s":        pipeReplays * pipeFields / median(col(func(p *passResult) float64 { return p.ReplayS })),
	}
	if !opt.Trace {
		// The rectangular end-to-end columns, read for a batch row: a
		// "request" is one field carried through the whole pass, the
		// latency is the pass itself, the tail is the slowest pass.
		_, slowest := minMax(passS)
		res.Metrics["setup_s"] = median(setup)
		res.Metrics["req_per_s"] = pipeFields / median(passS)
		res.Metrics["lat_p50_ms"] = median(passS) * 1e3
		res.Metrics["lat_p99_ms"] = slowest * 1e3
		res.Metrics["stored_bytes_per_raw_byte"] = last.Write.storedPerRaw()
		res.Metrics["recon_rel_err"] = last.Write.Stats.MeanRelErr
		for k, v := range row {
			res.Extra[k] = v
		}
		return res, nil
	}

	m := res.Metrics
	for k, v := range row {
		m[k] = v
	}
	u.put(m, float64(res.Attempted))
	m["era5.generate_s"] = median(setup)
	m["archive.io.read_calls"] = float64(last.IO.Calls)
	m["archive.io.read_bytes"] = float64(last.IO.Bytes)
	m["archive.io.read_s"] = last.IO.Seconds
	putWriteSide(m, last.Write)

	path := filepath.Join(opt.OutDir, "batch-pipeline.exa")
	reader, err := exaclim.OpenArchive(path)
	if err != nil {
		return nil, fmt.Errorf("probe: open archive: %w", err)
	}
	defer reader.Close()
	sh := shape{Members: pipeMembers, Scenarios: pipeScenarios, Steps: pipeSteps}
	uniform := &workload{Mix: []mixEntry{{classFieldF32, 1}}}
	if err := probeLayers(m, reader, last.Model, newGenerator(uniform, sh, newPools(sh, opt.Seed), opt.Seed, 0, false)); err != nil {
		return nil, err
	}
	m["runtime.peak_rss_mb"] = peakRSSMB()
	return res, writeTrace(opt, w, nil, nil, last.Reads)
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
