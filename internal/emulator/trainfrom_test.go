package emulator

import (
	"bytes"
	"testing"

	"exaclim/internal/archive"
	"exaclim/internal/era5"
	"exaclim/internal/forcing"
	"exaclim/internal/source"
	"exaclim/internal/sphere"
	"exaclim/internal/tile"
	"exaclim/internal/trend"
)

// smallStreamCfg is the shared configuration of the streaming-training
// tests: Workers pinned so the static-span partition — and with it the
// bit-level fit — is identical across the paths being compared.
func smallStreamCfg() Config {
	return Config{
		L: 12, P: 2, Workers: 3,
		Trend: trend.Options{
			StepsPerYear: era5.DaysPerYear, K: 2,
			RhoGrid: []float64{0.5, 0.85},
		},
		Variant: tile.VariantDPHP,
	}
}

// streamTestData builds a two-member synthetic campaign plus its forcing.
func streamTestData(t *testing.T, steps int) ([][]sphere.Field, []float64, int) {
	t.Helper()
	const lead = 15
	ens := make([][]sphere.Field, 2)
	var rf []float64
	for m := range ens {
		gen, err := era5.New(era5.Config{
			Grid: sphere.GridForBandLimit(16), L: 16, Seed: 21, Member: m,
			StartYear: 1990, StepsPerDay: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ens[m] = gen.Run(steps)
		rf = gen.AnnualRF(lead, steps/era5.DaysPerYear+2)
	}
	return ens, rf, lead
}

// gobBytes serializes a model with the wall-clock timing diagnostic
// zeroed (restored afterwards), so byte comparison tests only
// deterministic state.
func gobBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	saved := m.Diag.FactorSeconds
	m.Diag.FactorSeconds = 0
	defer func() { m.Diag.FactorSeconds = saved }()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainFromSlicesMatchesTrain pins the slice-adapter contract: the
// legacy Train signature and an explicit slice source must produce
// byte-identical models.
func TestTrainFromSlicesMatchesTrain(t *testing.T) {
	ens, rf, lead := streamTestData(t, 120)
	cfg := smallStreamCfg()
	m1, err := Train(ens, rf, lead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.FromSlices(ens)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainFrom(src, rf, lead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, m1), gobBytes(t, m2)) {
		t.Fatal("Train and TrainFrom(FromSlices) models differ")
	}
}

// TestTrainFromArchiveByteIdentical is the acceptance test of the
// streaming refactor: training from a spectral archive must be
// byte-identical — gob encoding and emulated output — to training on
// the in-memory slices decoded from that same archive.
func TestTrainFromArchiveByteIdentical(t *testing.T) {
	ens, rf, lead := streamTestData(t, 120)
	cfg := smallStreamCfg()
	grid := ens[0][0].Grid
	const steps = 120

	// Archive the campaign (members of one scenario) with a mixed band
	// table so real quantization is in play; both training paths then see
	// the same quantized data.
	h := archive.Header{
		Grid: grid, L: 16,
		Members: len(ens), Scenarios: 1, Steps: steps, ChunkSteps: 16,
		Bands: []archive.Band{
			{Lo: 0, Hi: 6, Prec: tile.FP64},
			{Lo: 6, Hi: 12, Prec: tile.FP32},
			{Lo: 12, Hi: 16, Prec: tile.FP16},
		},
	}
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	for m := range ens {
		for tt, f := range ens[m] {
			if err := w.AddField(m, 0, tt, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}

	// Path A: materialize the decoded campaign and train on slices.
	decoded := make([][]sphere.Field, len(ens))
	for m := range decoded {
		decoded[m] = make([]sphere.Field, steps)
		if err := r.EachField(m, 0, func(tt int, f sphere.Field) error {
			decoded[m][tt] = f.Copy()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	sliceModel, err := Train(decoded, rf, lead, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Path B: stream straight from the archive.
	src, err := source.FromArchive(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	archModel, err := TrainFrom(src, rf, lead, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(gobBytes(t, sliceModel), gobBytes(t, archModel)) {
		t.Fatal("archive-trained model differs from slice-trained model on identical data")
	}
	if archModel.Diag.Members != len(ens) || archModel.Diag.StepsPerMember != steps {
		t.Fatalf("diagnostics report %dx%d, want %dx%d",
			archModel.Diag.Members, archModel.Diag.StepsPerMember, len(ens), steps)
	}

	// Emulation from the two models must agree bit for bit under a fixed
	// seed — the round-trip guarantee the retrain CLI relies on.
	const seed, emuSteps = 42, 20
	a, err := sliceModel.Emulate(seed, 0, emuSteps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := archModel.Emulate(seed, 0, emuSteps)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range a {
		for pix := range a[tt].Data {
			if a[tt].Data[pix] != b[tt].Data[pix] {
				t.Fatalf("emulated fields differ at step %d pixel %d", tt, pix)
			}
		}
	}
}

// TestTrainFromDeterministic pins run-to-run determinism of the
// streaming trainer for a fixed worker count.
func TestTrainFromDeterministic(t *testing.T) {
	ens, rf, lead := streamTestData(t, 90)
	cfg := smallStreamCfg()
	m1, err := Train(ens, rf, lead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(ens, rf, lead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, m1), gobBytes(t, m2)) {
		t.Fatal("two identical training runs produced different models")
	}
}

// TestTrainFromSyntheticSource checks the generator-backed source end to
// end: training streamed from lazily built generators matches training
// on the equivalent materialized runs.
func TestTrainFromSyntheticSource(t *testing.T) {
	const steps = 90
	ens, rf, lead := streamTestData(t, steps)
	cfg := smallStreamCfg()
	src, err := source.FromSynthetic(era5.Config{
		Grid: sphere.GridForBandLimit(16), L: 16, Seed: 21,
		StartYear: 1990, StepsPerDay: 1,
	}, 2, steps)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := TrainFrom(src, rf, lead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(ens, rf, lead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, m1), gobBytes(t, m2)) {
		t.Fatal("synthetic-source model differs from slice-trained model")
	}
}

// TestTrainFromSetSingleByteIdentical pins the adapter chain of the
// pathway refactor: the legacy Train signature, TrainFrom with a
// positional forcing record, and TrainFromSet on a one-pathway set must
// produce byte-identical models.
func TestTrainFromSetSingleByteIdentical(t *testing.T) {
	ens, rf, lead := streamTestData(t, 120)
	cfg := smallStreamCfg()
	legacy, err := Train(ens, rf, lead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.FromSlices(ens)
	if err != nil {
		t.Fatal(err)
	}
	viaSet, err := TrainFromSet(src, forcing.Single("historical", rf), lead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The stored pathway name differs between the two (adapters name
	// theirs "training"), so compare with the set normalized.
	viaSet.Trend.Set.Pathways[0].Name = legacy.Trend.Set.Pathways[0].Name
	if !bytes.Equal(gobBytes(t, legacy), gobBytes(t, viaSet)) {
		t.Fatal("TrainFromSet(single pathway) differs from legacy Train")
	}
	if legacy.Diag.Pathways != 1 {
		t.Fatalf("Diag.Pathways = %d, want 1", legacy.Diag.Pathways)
	}
}

// twoScenarioArchive archives a 2-member x 2-scenario campaign (distinct
// synthetic data per series) and returns the reader plus the forcing
// set whose pathway k names scenario k.
func twoScenarioArchive(t *testing.T, steps int) (*archive.Reader, forcing.Set, int) {
	t.Helper()
	const lead = 15
	grid := sphere.GridForBandLimit(16)
	h := archive.Header{
		Grid: grid, L: 16, Members: 2, Scenarios: 2, Steps: steps, ChunkSteps: 16,
		Bands: []archive.Band{
			{Lo: 0, Hi: 8, Prec: tile.FP64},
			{Lo: 8, Hi: 16, Prec: tile.FP32},
		},
	}
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	var rf []float64
	for s := 0; s < h.Scenarios; s++ {
		for m := 0; m < h.Members; m++ {
			gen, err := era5.New(era5.Config{
				Grid: grid, L: 16, Seed: 31, Member: s*h.Members + m,
				StartYear: 1990, StepsPerDay: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			rf = gen.AnnualRF(lead, steps/era5.DaysPerYear+2)
			for tt, f := range gen.Run(steps) {
				if err := w.AddField(m, s, tt, f); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	// Scenario 1 runs a genuinely different (boosted) pathway.
	boosted := make([]float64, len(rf))
	for i, v := range rf {
		boosted[i] = v + 1.5
	}
	set, err := forcing.NewSet(
		forcing.Pathway{Name: "historical", Annual: rf},
		forcing.Pathway{Name: "boosted", Annual: boosted},
	)
	if err != nil {
		t.Fatal(err)
	}
	return r, set, lead
}

// TestTrainFromSetMixedScenarios is the multi-scenario acceptance test:
// one TrainFromSet fit spans an archive holding two scenarios with
// different forcing pathways. The fit must key every realization to its
// scenario's pathway, be byte-identical between the archive source and
// labeled in-memory slices of the same decoded data, and be
// deterministic run to run.
func TestTrainFromSetMixedScenarios(t *testing.T) {
	const steps = 120
	r, set, lead := twoScenarioArchive(t, steps)
	cfg := smallStreamCfg()
	h := r.Header()

	src, err := source.FromArchiveAll(r, set.Names())
	if err != nil {
		t.Fatal(err)
	}
	m1, err := TrainFromSet(src, set, lead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Diag.Members != 4 || m1.Diag.Pathways != 2 {
		t.Fatalf("Diag reports %d members / %d pathways, want 4 / 2", m1.Diag.Members, m1.Diag.Pathways)
	}
	if want := []int{0, 0, 1, 1}; len(m1.Trend.Assign) != 4 ||
		m1.Trend.Assign[0] != want[0] || m1.Trend.Assign[1] != want[1] ||
		m1.Trend.Assign[2] != want[2] || m1.Trend.Assign[3] != want[3] {
		t.Fatalf("Assign = %v, want %v", m1.Trend.Assign, want)
	}

	// Byte-identity: the archive source vs labeled slices of the same
	// decoded fields (the multi-scenario analogue of the PR 3 pin).
	decoded := make([][]sphere.Field, 4)
	labels := make([]string, 4)
	for rr := range decoded {
		decoded[rr] = make([]sphere.Field, steps)
		labels[rr] = set.Pathways[rr/h.Members].Name
		if err := r.EachField(rr%h.Members, rr/h.Members, func(tt int, f sphere.Field) error {
			decoded[rr][tt] = f.Copy()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	slices, err := source.FromSlices(decoded)
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := source.WithScenarios(slices, labels)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainFromSet(labeled, set, lead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, m1), gobBytes(t, m2)) {
		t.Fatal("archive-sourced multi-scenario model differs from labeled-slice model")
	}

	// Determinism run to run.
	m3, err := TrainFromSet(src, set, lead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, m1), gobBytes(t, m3)) {
		t.Fatal("two identical multi-scenario fits differ")
	}

	// The two pathways give genuinely different deterministic means.
	a, b := sphere.NewField(m1.Grid), sphere.NewField(m1.Grid)
	var step trend.Step
	m1.Trend.StepAt(0, 10, &step)
	step.Mean(a)
	m1.Trend.StepAt(1, 10, &step)
	step.Mean(b)
	diff := 0.0
	for pix := range a.Data {
		if d := b.Data[pix] - a.Data[pix]; d > diff {
			diff = d
		}
	}
	if diff == 0 {
		t.Fatal("pathway mean fields are identical; scenario forcing not threaded through")
	}

	// Unlabeled realizations cannot map into a multi-pathway set.
	if _, err := TrainFromSet(slices, set, lead, cfg); err == nil {
		t.Fatal("expected error for unlabeled realizations under a multi-pathway set")
	}
}

// TestEmulateUnderMatchesTrendView pins the what-if contract: emulating
// under an alternative forcing must be byte-identical to emulating from
// a model whose trend fit is the WithAnnualRF view of that forcing, and
// EmulateUnder(nil) must be byte-identical to Emulate.
func TestEmulateUnderMatchesTrendView(t *testing.T) {
	ens, rf, lead := streamTestData(t, 90)
	cfg := smallStreamCfg()
	model, err := Train(ens, rf, lead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	whatIf := make([]float64, len(rf))
	for i, v := range rf {
		whatIf[i] = v + 2
	}
	const seed, steps = 99, 15
	got, err := model.EmulateUnder(whatIf, seed, 0, steps)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the model through gob (resetting lazy caches), swap in
	// the trend view, and emulate the ordinary way.
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Trend = loaded.Trend.WithAnnualRF(whatIf)
	want, err := loaded.Emulate(seed, 0, steps)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range want {
		for pix := range want[tt].Data {
			if got[tt].Data[pix] != want[tt].Data[pix] {
				t.Fatalf("what-if emulation differs at step %d pixel %d", tt, pix)
			}
		}
	}
	// nil forcing = the training pathway.
	plain, err := model.Emulate(seed, 0, steps)
	if err != nil {
		t.Fatal(err)
	}
	underNil, err := model.EmulateUnder(nil, seed, 0, steps)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range plain {
		for pix := range plain[tt].Data {
			if plain[tt].Data[pix] != underNil[tt].Data[pix] {
				t.Fatalf("EmulateUnder(nil) differs from Emulate at step %d pixel %d", tt, pix)
			}
		}
	}
}

// TestLoadRejectsPrePathwayModel pins the legacy-gob guard: a model
// whose trend fit carries no forcing pathways (what decoding a
// pre-pathway gob produces, since its AnnualRF field is discarded) must
// fail to load with a diagnostic instead of panicking later.
func TestLoadRejectsPrePathwayModel(t *testing.T) {
	ens, rf, lead := streamTestData(t, 90)
	model, err := Train(ens, rf, lead, smallStreamCfg())
	if err != nil {
		t.Fatal(err)
	}
	model.Trend.Set = forcing.Set{} // simulate the legacy decode result
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("expected Load to reject a model without forcing pathways")
	}
}
