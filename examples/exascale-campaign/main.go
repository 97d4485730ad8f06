// Exascale-campaign: the paper's end-game workflow. Train one emulator,
// then boost it into a multi-member, multi-scenario emulated ensemble
// with the scenario-parallel engine — members stream concurrently, no
// field is ever stored — and compare the bytes generated against the
// bytes kept (the petabyte-saving claim, at laptop scale). The calibrated
// performance model then extrapolates the same campaign's covariance
// factorization to the paper's flagship machine.
//
//	go run ./examples/exascale-campaign
package main

import (
	"fmt"
	"time"

	"exaclim"
	"exaclim/internal/cluster"
	"exaclim/internal/stats"
)

func main() {
	// Train once on a short synthetic-ERA5 record.
	const (
		startYear = 1990
		years     = 2
		lead      = 15
	)
	gen, err := exaclim.NewSynthetic(exaclim.SyntheticConfig{
		Grid: exaclim.GridForBandLimit(16), L: 16,
		Seed: 7, StartYear: startYear, StepsPerDay: 1,
	})
	if err != nil {
		panic(err)
	}
	sim := gen.Run(years * exaclim.DaysPerYear)
	model, err := exaclim.Train([][]exaclim.Field{sim}, gen.AnnualRF(lead, years+2), lead,
		exaclim.Config{
			L: 12, P: 2, Variant: exaclim.DPHP, SenderConvert: true,
			Trend: exaclim.TrendOptions{
				StepsPerYear: exaclim.DaysPerYear, K: 2,
				RhoGrid: []float64{0.5, 0.85},
			},
		})
	if err != nil {
		panic(err)
	}
	modelBytes, _ := model.SizeBytes()
	fmt.Printf("trained one %s emulator, stored in %.2f MB\n\n", model.Diag.Variant, float64(modelBytes)/1e6)

	// Campaign: every member x scenario pair runs concurrently, sharing
	// the one trained model. The alternative world shifts the whole
	// forcing record (history included) by +2 W/m^2, which moves the
	// current and lagged regressors coherently — the scenario shape the
	// short training record identifies robustly.
	highRF := make([]float64, len(model.Trend.AnnualRF()))
	for i, v := range model.Trend.AnnualRF() {
		highRF[i] = v + 2
	}
	scenarios := []exaclim.EnsembleScenario{
		{Name: "training-forcing"},
		{Name: "high-forcing (+2 W/m2)", AnnualRF: highRF},
	}
	spec := exaclim.EnsembleSpec{
		Members: 6, Steps: exaclim.DaysPerYear, BaseSeed: 1,
		Scenarios: scenarios,
	}
	fmt.Printf("campaign: %d members x %d scenarios x %d daily steps, streaming\n",
		spec.Members, len(scenarios), spec.Steps)

	agg := stats.NewEnsembleAggregator(len(scenarios), spec.Members)
	start := time.Now()
	if err := model.EmulateEnsemble(spec, func(member, scenario, t int, f exaclim.Field) {
		agg.Add(scenario, member, f) // fields are scratch: reduce, don't retain
	}); err != nil {
		panic(err)
	}
	elapsed := time.Since(start).Seconds()

	for s, sc := range scenarios {
		mean, spread := agg.MeanAndSpread(s)
		fmt.Printf("  %-22s %.2f K global mean, %.3f K member spread\n", sc.Name, mean, spread)
	}
	fields := spec.Members * len(scenarios) * spec.Steps
	rawBytes := int64(fields) * int64(model.Grid.Points()) * 8
	fmt.Printf("\n%d fields in %.2fs (%.0f fields/s); %.1f MB of ensemble data from a %.2f MB model (%.0fx boost)\n",
		fields, elapsed, float64(fields)/elapsed,
		float64(rawBytes)/1e6, float64(modelBytes)/1e6, float64(rawBytes)/float64(modelBytes))

	// The same campaign at paper scale: the L=5219 covariance factorized
	// on Frontier with the calibrated performance model.
	fro := cluster.Machines()[0]
	r := cluster.Predict(fro, 9025, 27240000, cluster.DefaultTile, exaclim.DPHP, cluster.DefaultPolicy())
	fmt.Printf("\nat paper scale, the L=5219 covariance factorizes on %s in %.2f h at %.1f PFlop/s (DP/HP)\n",
		fro.Name, r.Seconds/3600, r.PFlops)
}
