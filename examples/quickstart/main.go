// Quickstart: synthesize two years of daily global temperature, train
// the emulator, and generate a fresh 90-day emulation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"exaclim"
)

func main() {
	// 1. Data. The paper trains on ERA5; this repository substitutes a
	// statistically ERA5-like synthetic generator (see internal/era5).
	gen, err := exaclim.NewSynthetic(exaclim.SyntheticConfig{
		Grid:        exaclim.GridForBandLimit(24), // 25 x 48 grid, ~7.5 degrees
		L:           24,
		Seed:        42,
		StartYear:   2000,
		StepsPerDay: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	sim := gen.Run(2 * exaclim.DaysPerYear)
	fmt.Printf("training data: %d daily fields on %v\n", len(sim), sim[0].Grid)

	// 2. Train: band limit 16, VAR(2), DP/HP mixed-precision covariance
	// factor (the paper's fastest variant).
	model, err := exaclim.Train([][]exaclim.Field{sim}, gen.AnnualRF(15, 3), 15, exaclim.Config{
		L: 16, P: 2, Variant: exaclim.DPHP, SenderConvert: true,
		Trend: exaclim.TrendOptions{
			StepsPerYear: exaclim.DaysPerYear, K: 2,
			RhoGrid: []float64{0.5, 0.85},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	d := model.Diag
	fmt.Printf("trained: %dx%d covariance, mixed factor %.1f MB (DP: %.1f MB), %d precision conversions\n",
		d.CovDim, d.CovDim, float64(d.FactorBytes)/1e6, float64(d.FactorBytesDP)/1e6, d.Conversions)

	// 3. Emulate a new realization and verify statistical consistency.
	emu, err := model.Emulate(7, 0, 90)
	if err != nil {
		log.Fatal(err)
	}
	cons, err := model.CheckConsistency(sim, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("emulated %d days; consistency: %v\n", len(emu), cons)
	fmt.Println("\nfirst emulated day (ASCII, dark=cold):")
	fmt.Println(emu[0].ASCIIMap(14, 56))
}
