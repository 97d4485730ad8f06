// Command exaclim is the emulator's end-to-end CLI: it synthesizes (or
// will later load) training data, trains the emulator, reports training
// diagnostics and statistical consistency, emulates new realizations,
// and saves/loads trained models.
//
//	exaclim -L 16 -years 3 -variant DP/HP -save model.gob
//	exaclim -load model.gob -emulate 365 -maps out
//
// The ensemble subcommand runs a scenario-parallel emulation campaign
// from one trained model, streaming members concurrently:
//
//	exaclim ensemble -members 16 -steps 365 -workers 8
//	exaclim ensemble -load model.gob -members 32 -stabilize 2030:450:40
//
// The archive subcommand runs a campaign straight into the chunked
// mixed-precision spectral store and reports the measured compression;
// replay reconstructs fields and statistics from an archive alone,
// fanning the decode out over independent series cursors; retrain
// re-fits an emulator directly from an archive — the full emulate ->
// archive -> retrain -> emulate loop without ever materializing a raw
// grid campaign:
//
//	exaclim archive -members 8 -steps 180 -out campaign.exa
//	exaclim replay -archive campaign.exa -workers 8
//	exaclim replay -archive campaign.exa -member 0 -t 42 -maps out
//	exaclim retrain -archive campaign.exa -save refit.gob -emulate 90
//
// Forcing is scenario-aware end to end: archive writes its campaign's
// named forcing pathways to a JSON sidecar (-rf-out), retrain
// -scenarios all fits one model across every archived scenario (each
// member under its own pathway, from -rf-file or reconstructed via
// -stabilize), and serve -live-rf turns each pathway of a file into a
// live "what-if" scenario emulated under forcing the archive never
// held:
//
//	exaclim archive -members 4 -stabilize 2030:450:40 -out campaign.exa -rf-out rf.json
//	exaclim retrain -archive campaign.exa -scenarios all -rf-file rf.json -save refit.gob
//	exaclim serve -archive campaign.exa -load refit.gob -live-rf rf.json
//
// The info subcommand prints an archive's header, band policy, chunk
// layout and measured compression without decoding any fields; serve
// fronts an archive (plus an optional model for live scenarios) with
// the concurrent HTTP query API — full fields, point/box time series
// and ensemble statistics — hardened by -max-inflight (503 shedding)
// and -timeout. It prints the address it bound (-addr 127.0.0.1:0 takes
// a free port) and stops on SIGINT/SIGTERM after draining in-flight
// requests:
//
//	exaclim info campaign.exa
//	exaclim serve -archive campaign.exa -addr :8080 -max-inflight 64 -timeout 10s
//	exaclim serve -archive campaign.exa -addr 127.0.0.1:0 -log-requests -
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"exaclim"
	"exaclim/internal/par"
	"exaclim/internal/sphere"
	"exaclim/internal/stats"
)

// subcommands maps each first argument to its runner; anything else
// runs the train-and-emulate pipeline.
var subcommands = map[string]func([]string){
	"ensemble": runEnsemble,
	"archive":  runArchive,
	"replay":   runReplay,
	"retrain":  runRetrain,
	"info":     runInfo,
	"serve":    runServe,
}

func main() {
	if len(os.Args) > 1 && subcommands[os.Args[1]] != nil {
		subcommands[os.Args[1]](os.Args[2:])
		return
	}
	runPipeline()
}

func parseVariant(name string) exaclim.Variant {
	switch strings.ToUpper(name) {
	case "DP":
		return exaclim.DP
	case "DP/SP":
		return exaclim.DPSP
	case "DP/SP/HP":
		return exaclim.DPSPHP
	case "DP/HP":
		return exaclim.DPHP
	}
	fatal(fmt.Errorf("unknown variant %q", name))
	panic("unreachable")
}

func runPipeline() {
	var (
		gridL    = flag.Int("gridL", 24, "band limit defining the data grid resolution")
		l        = flag.Int("L", 16, "emulator spherical-harmonic band limit")
		years    = flag.Int("years", 3, "training years of synthetic data")
		daily    = flag.Int("stepsPerDay", 1, "time steps per day (1=daily, 24=hourly)")
		p        = flag.Int("P", 3, "VAR order")
		variant  = flag.String("variant", "DP/HP", "Cholesky precision: DP|DP/SP|DP/SP/HP|DP/HP")
		seed     = flag.Int64("seed", 1, "RNG seed")
		emulateN = flag.Int("emulate", 90, "steps to emulate after training")
		savePath = flag.String("save", "", "save the trained model to this file")
		loadPath = flag.String("load", "", "load a model instead of training")
		mapDir   = flag.String("maps", "", "write PGM maps of the first emulated field")
	)
	flag.Parse()
	cfg := emulatorConfig(*l, *p, *variant, *daily, 0)

	var model *exaclim.Model
	if *loadPath != "" {
		model = loadModel(*loadPath)
	} else {
		var sim []exaclim.Field
		model, sim = trainSynthetic(*gridL, *seed, 1990, *years, *years+1, cfg)
		d := model.Diag
		fmt.Printf("trained: covariance %dx%d, tiles %d, factor %.2f MB (DP would be %.2f MB), factorization %.2fs, %d conversions\n",
			d.CovDim, d.CovDim, d.TileSize, float64(d.FactorBytes)/1e6, float64(d.FactorBytesDP)/1e6,
			d.FactorSeconds, d.Conversions)
		cons, err := model.CheckConsistency(sim, *seed+100)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("consistency vs training simulation: %v\n", cons)
	}

	if *savePath != "" {
		saveModel(*savePath, model, "model")
	}

	if *emulateN > 0 {
		fmt.Printf("emulating %d steps...\n", *emulateN)
		emu, err := model.Emulate(*seed+1, 0, *emulateN)
		if err != nil {
			fatal(err)
		}
		sum := stats.Summarize(emu)
		fmt.Printf("emulation summary: %v\n", sum)
		fmt.Println(emu[0].ASCIIMap(18, 72))
		if *mapDir != "" {
			writeMap(*mapDir, "emulation_t0.pgm", emu[0])
		}
	}
}

// emulatorConfig is the CLI's one emulator recipe: VAR(p) at band
// limit l in the named Cholesky variant, sender-side tile conversion,
// and a trend of two annual harmonics (plus a diurnal one when a day
// holds more than one step) with its forcing response searched over
// rho in {0.5, 0.85}.
func emulatorConfig(l, p int, variant string, stepsPerDay, workers int) exaclim.Config {
	trend := exaclim.TrendOptions{StepsPerYear: exaclim.DaysPerYear * stepsPerDay, K: 2, RhoGrid: []float64{0.5, 0.85}}
	if stepsPerDay > 1 {
		trend.StepsPerDay, trend.KDiurnal = stepsPerDay, 1
	}
	return exaclim.Config{
		L: l, P: p, Variant: parseVariant(variant), SenderConvert: true,
		Workers: workers, Trend: trend,
	}
}

// trainSynthetic trains cfg on `years` years of one synthetic member
// (grid of band limit gridL, calendar from startYear, cfg's steps per
// day) under the generator's forcing from 15 lead years before
// startYear through rfYears years from it, and returns the model with
// the simulation it fitted.
func trainSynthetic(gridL int, seed int64, startYear, years, rfYears int, cfg exaclim.Config) (*exaclim.Model, []exaclim.Field) {
	grid := exaclim.GridForBandLimit(gridL)
	gen, err := exaclim.NewSynthetic(exaclim.SyntheticConfig{
		Grid: grid, L: gridL, Seed: seed, StartYear: startYear,
		StepsPerDay: cfg.Trend.StepsPerYear / exaclim.DaysPerYear,
	})
	if err != nil {
		fatal(err)
	}
	sim := gen.Run(years * cfg.Trend.StepsPerYear)
	fmt.Printf("training emulator: L=%d P=%d variant=%s on %d synthetic steps of grid %v...\n",
		cfg.L, cfg.P, cfg.Variant, len(sim), grid)
	const lead = 15
	model, err := exaclim.Train([][]exaclim.Field{sim}, gen.AnnualRF(lead, rfYears), lead, cfg)
	if err != nil {
		fatal(err)
	}
	return model, sim
}

// campaignFlags bundles the train-or-load flags shared by the campaign
// subcommands (ensemble, archive).
type campaignFlags struct {
	gridL, l, years, p *int
	variant, loadPath  *string
	startYear          *int
	members, steps, t0 *int
	seed               *int64
	workers            *int
	stabilize          *string
}

func addCampaignFlags(fs *flag.FlagSet) *campaignFlags {
	return &campaignFlags{
		gridL:     fs.Int("gridL", 24, "band limit defining the data grid resolution"),
		l:         fs.Int("L", 16, "emulator spherical-harmonic band limit"),
		years:     fs.Int("years", 2, "training years of synthetic data"),
		p:         fs.Int("P", 2, "VAR order"),
		variant:   fs.String("variant", "DP/HP", "Cholesky precision: DP|DP/SP|DP/SP/HP|DP/HP"),
		loadPath:  fs.String("load", "", "load a trained model instead of training"),
		startYear: fs.Int("startYear", 1990, "calendar year of training step 0 (scenario alignment)"),
		members:   fs.Int("members", 8, "ensemble members per scenario"),
		steps:     fs.Int("steps", 90, "steps to emulate per member"),
		t0:        fs.Int("t0", 0, "training-step offset of the first emulated step"),
		seed:      fs.Int64("seed", 1, "campaign base seed"),
		workers:   fs.Int("workers", 0, "concurrently generated members (0 = GOMAXPROCS)"),
		stabilize: fs.String("stabilize", "", "add a stabilization scenario startYear:targetPPM:efold (e.g. 2030:450:40)"),
	}
}

// validate checks everything cheap before training starts, including
// the stabilization syntax.
func (c *campaignFlags) validate() {
	if *c.members < 1 || *c.steps < 1 {
		fatal(fmt.Errorf("need -members >= 1 and -steps >= 1, got %d and %d", *c.members, *c.steps))
	}
	if *c.t0 < 0 {
		fatal(fmt.Errorf("need -t0 >= 0, got %d", *c.t0))
	}
	parseVariant(*c.variant)
	if *c.stabilize != "" {
		parseStabilize(*c.stabilize)
	}
}

// buildModel trains the campaign model on synthetic data (or loads one),
// with the forcing record extended to cover the emulation horizon.
func (c *campaignFlags) buildModel() *exaclim.Model {
	if *c.loadPath != "" {
		return loadModel(*c.loadPath)
	}
	rfYears := *c.years + (*c.t0+*c.steps)/exaclim.DaysPerYear + 1
	model, _ := trainSynthetic(*c.gridL, *c.seed, *c.startYear, *c.years, rfYears,
		emulatorConfig(*c.l, *c.p, *c.variant, 1, 0))
	return model
}

// pathways returns the campaign's forcing set under model: its training
// record plus the -stabilize pathway, if any.
func (c *campaignFlags) pathways(model *exaclim.Model) exaclim.PathwaySet {
	return campaignPathways(model.Trend.AnnualRF(), *c.startYear, model.Trend.Lead, *c.stabilize)
}

// campaignPathways builds a campaign's forcing set: the training record
// rf (whose year 0 is startYear-lead) as "training-forcing", plus the
// startYear:targetPPM:efold stabilization pathway on the same calendar
// when stabilize is set. archive emulates and writes (-rf-out) this set
// and retrain -scenarios all rebuilds it from the same flags, so the
// two agree by construction.
func campaignPathways(rf []float64, startYear, lead int, stabilize string) exaclim.PathwaySet {
	pathways := []exaclim.Pathway{{Name: "training-forcing", Annual: rf}}
	if stabilize != "" {
		sc := exaclim.Stabilization(parseStabilize(stabilize))
		pathways = append(pathways, sc.Pathway(startYear-lead, len(rf)))
	}
	set, err := exaclim.NewPathwaySet(pathways...)
	if err != nil {
		fatal(err)
	}
	return set
}

// spec assembles the EnsembleSpec from the parsed flags: one scenario
// per pathway of set, scenario 0 under the model's own record.
func (c *campaignFlags) spec(set exaclim.PathwaySet) exaclim.EnsembleSpec {
	scenarios := make([]exaclim.EnsembleScenario, set.Len())
	for i, pw := range set.Pathways {
		scenarios[i] = exaclim.EnsembleScenario{Name: pw.Name, AnnualRF: pw.Annual}
	}
	scenarios[0].AnnualRF = nil
	return exaclim.EnsembleSpec{
		Members: *c.members, T0: *c.t0, Steps: *c.steps,
		BaseSeed: *c.seed, Scenarios: scenarios, Workers: *c.workers,
	}
}

// runEnsemble trains (or loads) a model and generates a members x
// scenarios campaign concurrently, reporting per-scenario climate
// statistics, throughput, and the storage-boost factor: the bytes of
// ensemble data produced per byte of stored model.
func runEnsemble(args []string) {
	fs := flag.NewFlagSet("ensemble", flag.ExitOnError)
	cf := addCampaignFlags(fs)
	fs.Parse(args)
	cf.validate()
	model := cf.buildModel()
	spec := cf.spec(cf.pathways(model))
	scenarios := spec.Scenarios
	fmt.Printf("emulating %d members x %d scenarios x %d steps...\n",
		spec.Members, len(scenarios), spec.Steps)

	agg := stats.NewEnsembleAggregator(len(scenarios), spec.Members)
	start := time.Now()
	if err := model.EmulateEnsemble(spec, func(member, scenario, t int, f exaclim.Field) {
		agg.Add(scenario, member, f)
	}); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start).Seconds()

	fields := spec.Members * len(scenarios) * spec.Steps
	rawBytes := int64(fields) * int64(model.Grid.Points()) * 8
	modelBytes, _ := model.SizeBytes()
	for s, sc := range scenarios {
		mean, spread := agg.MeanAndSpread(s)
		fmt.Printf("  %-20s ensemble mean %.2f K, member spread %.3f K\n", sc.Name, mean, spread)
	}
	fmt.Printf("generated %d fields in %.2fs (%.0f fields/s)\n", fields, elapsed, float64(fields)/elapsed)
	if modelBytes > 0 {
		fmt.Printf("storage boost: %.2f MB of ensemble data from a %.2f MB model (%.0fx)\n",
			float64(rawBytes)/1e6, float64(modelBytes)/1e6, float64(rawBytes)/float64(modelBytes))
	}
}

// runArchive emulates a campaign directly into the chunked
// mixed-precision spectral store: it plans the band layout from a probe
// emulation's power spectrum, streams every ensemble field through the
// archive writer, and reports the measured (not analytic) compression
// against float32 raw grids.
func runArchive(args []string) {
	fs := flag.NewFlagSet("archive", flag.ExitOnError)
	cf := addCampaignFlags(fs)
	var (
		out    = fs.String("out", "campaign.exa", "archive file to write")
		rfOut  = fs.String("rf-out", "", "write the campaign's forcing pathways to this JSON file (for retrain -scenarios all / serve -live-rf)")
		budget = fs.Float64("budget", exaclim.DefaultArchivePolicy().MaxRelErr,
			"relative L2 reconstruction-error budget for quantization")
		safety = fs.Float64("safety", 0, "fraction of the budget the planner spends (0 = default 0.5)")
		chunk  = fs.Int("chunk", 0, "steps per chunk (0 = default)")
		archL  = fs.Int("archL", 0, "archive band limit (0 = emulator L)")
		probe  = fs.Int("probe", 16, "probe emulation steps used to measure the planning spectrum")
	)
	fs.Parse(args)
	cf.validate()
	model := cf.buildModel()
	grid := model.Grid
	la := *archL
	if la == 0 {
		la = model.Cfg.L
	}
	if !grid.SupportsBandLimit(la) {
		fatal(fmt.Errorf("grid %v does not support archive band limit %d", grid, la))
	}

	// Plan the band layout from the mean spectrum of a short probe
	// emulation (member 0 under the training forcing).
	probeN := min(max(*probe, 1), *cf.steps) // validate ensured -steps >= 1
	probeFields, err := model.Emulate(exaclim.MemberSeed(*cf.seed, 0, 0), *cf.t0, probeN)
	if err != nil {
		fatal(err)
	}
	plan, err := exaclim.NewSHT(grid, la)
	if err != nil {
		fatal(err)
	}
	policy := exaclim.ArchivePolicy{MaxRelErr: *budget, Safety: *safety}
	bands := policy.PlanBands(exaclim.MeanPowerSpectrum(plan, probeFields))

	set := cf.pathways(model)
	if *rfOut != "" {
		if err := set.Save(*rfOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d forcing pathways (%v) to %s\n", set.Len(), set.Names(), *rfOut)
	}
	header := exaclim.ArchiveHeader{
		Grid: grid, L: la,
		Members: *cf.members, Scenarios: set.Len(), Steps: *cf.steps,
		ChunkSteps: *chunk, Bands: bands, MaxRelErr: *budget,
	}
	w, err := exaclim.CreateArchive(*out, header)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("archiving %d members x %d scenarios x %d steps at L=%d (%d B/step):\n",
		header.Members, header.Scenarios, header.Steps, la, header.StepBytes())
	for _, b := range bands {
		fmt.Printf("  band %v: %d coefficients\n", b, b.Coeffs())
	}

	spec := cf.spec(set)
	var once sync.Once
	var addErr error
	start := time.Now()
	err = model.EmulateEnsemble(spec, func(member, scenario, t int, f exaclim.Field) {
		if err := w.AddField(member, scenario, t, f); err != nil {
			once.Do(func() { addErr = err })
		}
	})
	if err != nil {
		fatal(err)
	}
	if addErr != nil {
		fatal(addErr)
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start).Seconds()

	st := w.Stats()
	report := exaclim.MeasuredStorageReport(grid, st.Fields, 4, st.Bytes)
	fmt.Printf("archived %d fields in %.2fs (%.0f fields/s) to %s\n",
		st.Fields, elapsed, float64(st.Fields)/elapsed, *out)
	fmt.Printf("measured %.0f B/field; quantization rel err mean %.2g max %.2g (budget %g)\n",
		st.BytesPerField, st.MeanRelErr, st.MaxRelErr, *budget)
	fmt.Printf("measured vs float32 raw grids: %v\n", report)
}

// runReplay reconstructs fields and campaign statistics from an archive
// alone — no model, no training data — demonstrating that the stored
// spectral chunks are a usable stand-in for the raw grids they replaced.
func runReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		path     = fs.String("archive", "campaign.exa", "archive file to replay")
		member   = fs.Int("member", -1, "member to replay (-1 = all)")
		scenario = fs.Int("scenario", -1, "scenario to replay (-1 = all)")
		workers  = fs.Int("workers", 0, "concurrently replayed series (0 = GOMAXPROCS)")
		tShow    = fs.Int("t", -1, "print the field at this step (member/scenario default to 0)")
		mapDir   = fs.String("maps", "", "write a PGM map of step -t to this directory")
	)
	fs.Parse(args)
	r, err := exaclim.OpenArchive(*path)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	h := r.Header()
	fmt.Printf("archive %s: grid %v, L=%d, %d members x %d scenarios x %d steps, chunk %d\n",
		*path, h.Grid, h.L, h.Members, h.Scenarios, h.Steps, h.ChunkSteps)
	for _, b := range h.Bands {
		fmt.Printf("  band %v: %d coefficients\n", b, b.Coeffs())
	}
	fields := int64(h.Members) * int64(h.Scenarios) * int64(h.Steps)
	fmt.Printf("measured vs float32 raw grids: %v\n",
		exaclim.MeasuredStorageReport(h.Grid, fields, 4, r.Size()))

	pick := func(sel, n int) []int {
		if sel >= 0 {
			return []int{sel}
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	membersSel, scenariosSel := pick(*member, h.Members), pick(*scenario, h.Scenarios)
	agg := stats.NewEnsembleAggregator(h.Scenarios, h.Members)

	// Fan the decode out over independent series cursors: each selected
	// (member, scenario) pair replays on its own goroutine with its own
	// chunk buffer and synthesis scratch, so replay throughput scales
	// with cores like generation does.
	type pair struct{ m, s int }
	pairs := make([]pair, 0, len(membersSel)*len(scenariosSel))
	for _, s := range scenariosSel {
		for _, m := range membersSel {
			pairs = append(pairs, pair{m, s})
		}
	}
	errs := make([]error, len(pairs))
	start := time.Now()
	par.ForN(*workers, len(pairs), func(i int) {
		m, s := pairs[i].m, pairs[i].s
		cur, err := r.Series(m, s)
		if err != nil {
			errs[i] = err
			return
		}
		// EachField walks the series chunk-at-a-time: each archive chunk
		// is loaded and bounds-checked once for all its steps.
		errs[i] = cur.EachField(0, h.Steps, func(t int, f sphere.Field) error {
			agg.Add(s, m, f)
			return nil
		})
	})
	for _, err := range errs {
		if err != nil {
			fatal(err)
		}
	}
	elapsed := time.Since(start).Seconds()
	n := len(pairs) * h.Steps
	for _, s := range scenariosSel {
		mean, spread := agg.MeanAndSpread(s)
		fmt.Printf("  scenario %d: ensemble mean %.2f K, member spread %.3f K (reconstructed)\n",
			s, mean, spread)
	}
	fmt.Printf("replayed %d fields in %.2fs across %d series (decode throughput %.0f fields/s)\n",
		n, elapsed, len(pairs), float64(n)/elapsed)

	if *tShow >= 0 {
		m0, s0 := max(*member, 0), max(*scenario, 0)
		f, err := r.ReadField(m0, s0, *tShow)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("member %d scenario %d step %d: %v\n", m0, s0, *tShow,
			stats.Summarize([]exaclim.Field{f}))
		fmt.Println(f.ASCIIMap(18, 72))
		if *mapDir != "" {
			writeMap(*mapDir, fmt.Sprintf("replay_m%d_s%d_t%d.pgm", m0, s0, *tShow), f)
		}
	}
}

// runRetrain closes the emulate -> archive -> retrain loop: it re-fits
// an emulator directly from the members of one scenario of a spectral
// archive, streaming fields through per-worker cursors so the campaign
// is never materialized as raw grids, then optionally saves the model
// and emulates from it. The archive stores no forcing record, so the
// trend's annual radiative forcing either comes from an existing model
// (-rf-from) or is reconstructed from the named pathway and -startYear,
// matching what the archive subcommand trained with.
func runRetrain(args []string) {
	fs := flag.NewFlagSet("retrain", flag.ExitOnError)
	var (
		path      = fs.String("archive", "campaign.exa", "archive file to retrain from")
		scenario  = fs.Int("scenario", 0, "archive scenario whose members form the training ensemble")
		scenSel   = fs.String("scenarios", "", `"all" fits every archived scenario's members jointly, each under its own forcing pathway (default: just -scenario)`)
		rfFile    = fs.String("rf-file", "", "JSON pathway file naming each archived scenario's forcing in order (pathway k drives scenario k; see archive -rf-out)")
		stabilize = fs.String("stabilize", "", "with -scenarios all and no -rf-file: reconstruct scenario 1 as the stabilization pathway startYear:targetPPM:efold used at archive time")
		l         = fs.Int("L", 0, "emulator band limit (0 = archive band limit)")
		p         = fs.Int("P", 2, "VAR order")
		variant   = fs.String("variant", "DP/HP", "Cholesky precision: DP|DP/SP|DP/SP/HP|DP/HP")
		workers   = fs.Int("workers", 0, "training decode/analysis workers (0 = GOMAXPROCS)")
		startYear = fs.Int("startYear", 1990, "calendar year of archive step 0 (forcing alignment)")
		lead      = fs.Int("lead", 15, "years of forcing history before the data window")
		rfFrom    = fs.String("rf-from", "", "borrow the forcing record and lead from this saved model")
		savePath  = fs.String("save", "", "save the retrained model to this file")
		emulateN  = fs.Int("emulate", 0, "steps to emulate from the retrained model")
		seed      = fs.Int64("seed", 1, "RNG seed for -emulate")
	)
	fs.Parse(args)
	if *scenSel != "" && *scenSel != "all" {
		fatal(fmt.Errorf(`bad -scenarios %q: want "all" or empty`, *scenSel))
	}
	r, err := exaclim.OpenArchive(*path)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	h := r.Header()
	if *l == 0 {
		*l = h.L
	}
	years := (h.Steps + exaclim.DaysPerYear - 1) / exaclim.DaysPerYear

	var annualRF []float64
	if *rfFrom != "" {
		ref := loadModel(*rfFrom)
		annualRF, *lead = ref.Trend.AnnualRF(), ref.Trend.Lead
	} else {
		annualRF = exaclim.Historical().Annual(*startYear-*lead, *lead+years+1)
	}

	cfg := emulatorConfig(*l, *p, *variant, 1, *workers)
	var model *exaclim.Model
	trained := h.Members
	start := time.Now()
	if *scenSel == "all" {
		set := retrainPathwaySet(h.Scenarios, *rfFile, *stabilize, annualRF, *startYear, *lead)
		trained = h.Members * h.Scenarios
		fmt.Printf("retraining from %s: all %d scenarios (%v), %d members each x %d steps at L=%d (archive L=%d)\n",
			*path, h.Scenarios, set.Names(), h.Members, h.Steps, *l, h.L)
		model, err = exaclim.TrainFromArchiveAll(r, set, *lead, cfg)
	} else {
		fmt.Printf("retraining from %s: scenario %d, %d members x %d steps at L=%d (archive L=%d)\n",
			*path, *scenario, h.Members, h.Steps, *l, h.L)
		model, err = exaclim.TrainFromArchive(r, *scenario, annualRF, *lead, cfg)
	}
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	// Training streams the campaign twice: a trend pass and a residual
	// pass, each decoding every (member, t) field from the archive.
	decoded := 2 * trained * h.Steps
	d := model.Diag
	fmt.Printf("retrained: covariance %dx%d, variant %s, factorization %.2fs\n",
		d.CovDim, d.CovDim, d.Variant, d.FactorSeconds)
	fmt.Printf("streamed %d archived fields in %.2fs (decode throughput %.0f fields/s, %d workers)\n",
		decoded, elapsed, float64(decoded)/elapsed, par.Workers(*workers))

	if *savePath != "" {
		saveModel(*savePath, model, "retrained model")
	}
	if *emulateN > 0 {
		emu, err := model.Emulate(*seed, 0, *emulateN)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("emulated %d steps from the retrained model: %v\n",
			*emulateN, stats.Summarize(emu))
	}
}

// parseStabilize parses a startYear:targetPPM:efold stabilization spec,
// exiting with a diagnostic on malformed input. Shared by the archive
// and retrain subcommands so the spec format cannot drift between them.
func parseStabilize(spec string) (start, ppm, efold float64) {
	if _, err := fmt.Sscanf(spec, "%f:%f:%f", &start, &ppm, &efold); err != nil {
		fatal(fmt.Errorf("bad -stabilize %q: %w", spec, err))
	}
	return start, ppm, efold
}

// retrainPathwaySet assembles the per-archived-scenario forcing set for
// retrain -scenarios all: from the JSON pathway file when given
// (pathway k drives archived scenario k), otherwise reconstructed the
// way the archive subcommand built the campaign — the resolved training
// forcing as scenario 0 plus the -stabilize pathway as scenario 1.
func retrainPathwaySet(nScenarios int, rfFile, stabilize string, annualRF []float64, startYear, lead int) exaclim.PathwaySet {
	if rfFile != "" {
		set, err := exaclim.LoadPathwaySet(rfFile)
		if err != nil {
			fatal(err)
		}
		if set.Len() != nScenarios {
			fatal(fmt.Errorf("%s holds %d pathways, archive holds %d scenarios", rfFile, set.Len(), nScenarios))
		}
		return set
	}
	set := campaignPathways(annualRF, startYear, lead, stabilize)
	if set.Len() != nScenarios {
		fatal(fmt.Errorf("have %d forcing pathways for %d archived scenarios; pass -rf-file (see archive -rf-out) or -stabilize",
			set.Len(), nScenarios))
	}
	return set
}

// writeMap saves f as a PGM map named name in dir, scaled to f's own
// range.
func writeMap(dir, name string, f exaclim.Field) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, name)
	lo, hi := f.MinMax()
	if err := f.SavePGM(path, lo, hi); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// saveModel serializes a trained model to path, exiting on failure.
func saveModel(path string, model *exaclim.Model, label string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := model.Save(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	size, _ := model.SizeBytes()
	fmt.Printf("saved %s to %s (%.2f MB)\n", label, path, float64(size)/1e6)
}

// loadModel opens and deserializes a trained model, exiting on failure.
func loadModel(path string) *exaclim.Model {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	model, err := exaclim.LoadModel(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded model: L=%d covDim=%d variant=%s\n",
		model.Cfg.L, model.Diag.CovDim, model.Diag.Variant)
	return model
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "exaclim:", err)
	os.Exit(1)
}
