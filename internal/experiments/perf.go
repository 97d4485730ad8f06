package experiments

import (
	"math"
	"math/rand"
	"time"

	"exaclim/internal/cluster"
	"exaclim/internal/linalg"
	"exaclim/internal/mpchol"
	"exaclim/internal/stats"
	"exaclim/internal/storagemodel"
	"exaclim/internal/tile"
)

// Fig5 regenerates the sender- vs receiver-side conversion study on 128
// Summit nodes (paper Fig. 5: speedups up to 1.53x for DP/HP).
func Fig5() Table {
	t := Table{
		ID:     "fig5",
		Title:  "Cholesky on 128 Summit nodes: receiver-side (Old) vs sender-side (New) conversion",
		Header: []string{"matrix_size", "variant", "old_PF", "new_PF", "speedup"},
	}
	sum := cluster.Summit()
	old := cluster.Policy{SenderConvert: false, LatencyPriority: true}
	neu := cluster.DefaultPolicy()
	for _, n := range []int64{660000, 860000, 1060000, 1270000} {
		for _, v := range []tile.Variant{tile.VariantDP, tile.VariantDPSP, tile.VariantDPHP} {
			ro := cluster.Predict(sum, 128, n, 1024, v, old)
			rn := cluster.Predict(sum, 128, n, 1024, v, neu)
			t.Rows = append(t.Rows, []string{
				f("%.2fM", float64(n)/1e6), v.String(),
				f("%.2f", ro.PFlops), f("%.2f", rn.PFlops),
				f("%.2f", ro.Seconds/rn.Seconds),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper speedups at 1.27M: DP 1.15x, DP/SP 1.06x, DP/HP 1.53x; the model attributes DP's gain to unrelated runtime improvements and reports 1.0x")
	return t
}

// Fig6 regenerates the Summit 2,048-node performance sweep (paper Fig. 6).
func Fig6() Table {
	t := Table{
		ID:     "fig6",
		Title:  "Mixed-precision Cholesky on 2,048 Summit nodes (12,288 V100)",
		Header: []string{"matrix_size", "variant", "PFlops", "pct_DP_peak", "speedup_vs_DP"},
	}
	sum := cluster.Summit()
	for _, n := range []int64{2100000, 3150000, 4190000, 5240000, 6290000, 7340000, 8390000} {
		dp := cluster.Predict(sum, 2048, n, cluster.DefaultTile, tile.VariantDP, cluster.DefaultPolicy())
		for _, v := range tile.Variants {
			r := cluster.Predict(sum, 2048, n, cluster.DefaultTile, v, cluster.DefaultPolicy())
			t.Rows = append(t.Rows, []string{
				f("%.2fM", float64(n)/1e6), v.String(), f("%.1f", r.PFlops),
				f("%.1f%%", r.PctOfDPPeak*100), f("%.2f", dp.Seconds/r.Seconds),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper at 8.39M: DP = 61.7% of peak; speedups DP/SP 2.0x, DP/SP/HP 3.2x, DP/HP 5.2x (304.84 PF)")
	return t
}

// Fig7 regenerates the weak- and strong-scaling study on Summit.
func Fig7() Table {
	t := Table{
		ID:     "fig7",
		Title:  "Weak and strong scaling on Summit (up to 12,288 V100)",
		Header: []string{"mode", "variant", "gpus", "n", "TF_per_GPU", "efficiency"},
	}
	sum := cluster.Summit()
	pol := cluster.DefaultPolicy()
	// Weak scaling: memory-proportional problem sizes from a 384-GPU base.
	for _, v := range tile.Variants {
		base := cluster.Predict(sum, 64, 1650000, cluster.DefaultTile, v, pol)
		basePer := base.PFlops * 1000 / float64(base.GPUs)
		for _, nodes := range []int{64, 256, 512, 1024, 2048} {
			n := int64(1650000 * sqrtf(float64(nodes)/64))
			n -= n % int64(cluster.DefaultTile)
			r := cluster.Predict(sum, nodes, n, cluster.DefaultTile, v, pol)
			per := r.PFlops * 1000 / float64(r.GPUs)
			t.Rows = append(t.Rows, []string{
				"weak", v.String(), f("%d", r.GPUs), f("%.2fM", float64(n)/1e6),
				f("%.1f", per), f("%.0f%%", 100*per/basePer),
			})
		}
	}
	// Strong scaling: fixed workload sized for 512 nodes.
	const nStrong = 4200000
	for _, v := range tile.Variants {
		t512 := cluster.Predict(sum, 512, nStrong, cluster.DefaultTile, v, pol)
		for _, nodes := range []int{512, 1024, 2048} {
			r := cluster.Predict(sum, nodes, nStrong, cluster.DefaultTile, v, pol)
			eff := t512.Seconds * 512 / (float64(nodes) * r.Seconds)
			t.Rows = append(t.Rows, []string{
				"strong", v.String(), f("%d", r.GPUs), f("%.2fM", float64(nStrong)/1e6),
				f("%.1f", r.PFlops*1000/float64(r.GPUs)), f("%.0f%%", 100*eff),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: weak scaling 92-111%; strong scaling at 12,288 GPUs: DP 55%, DP/SP 72%, DP/SP/HP 60%, DP/HP 56% (model keeps DP compute-bound, a known deviation)")
	return t
}

// Fig8 regenerates the largest-scale runs on all four systems.
func Fig8() Table {
	t := Table{
		ID:     "fig8",
		Title:  "Largest-scale DP/HP runs (paper Fig. 8)",
		Header: []string{"system", "nodes", "gpus", "matrix_size", "PFlops", "paper_PFlops"},
	}
	type pt struct {
		m     cluster.MachineSpec
		nodes int
		n     int64
		paper float64
	}
	pts := []pt{
		{cluster.Frontier(), 2048, 12580000, 316},
		{cluster.Frontier(), 4096, 16780000, 523},
		{cluster.Frontier(), 6400, 20970000, 715},
		{cluster.Frontier(), 9025, 27240000, 976},
		{cluster.Alps(), 1024, 10490000, 364},
		{cluster.Alps(), 1600, 14420000, 623},
		{cluster.Alps(), 1936, 15730000, 739},
		{cluster.Summit(), 3072, 12580000, 375},
		{cluster.Leonardo(), 1024, 8390000, 243},
	}
	for _, p := range pts {
		r := cluster.Predict(p.m, p.nodes, p.n, cluster.DefaultTile, tile.VariantDPHP, cluster.DefaultPolicy())
		t.Rows = append(t.Rows, []string{
			p.m.Name, f("%d", p.nodes), f("%d", r.GPUs),
			f("%.2fM", float64(p.n)/1e6), f("%.1f", r.PFlops), f("%.0f", p.paper),
		})
	}
	t.Notes = append(t.Notes, "the Frontier 9,025-node flagship approaches 1 EFlop/s, as in the paper (0.976 EF)")
	return t
}

// Table1 regenerates the cross-system DP/HP comparison on 1,024 nodes.
func Table1() Table {
	t := Table{
		ID:     "table1",
		Title:  "DP/HP Cholesky on 1,024 nodes of each system (paper Table I)",
		Header: []string{"system", "chip", "gpus", "matrix_size", "PFlops", "TF_per_GPU", "paper_PF", "mem_GB_per_GPU"},
	}
	sizes := map[string]int64{"Frontier": 8390000, "Alps": 10490000, "Leonardo": 8390000, "Summit": 6290000}
	paper := map[string]float64{"Frontier": 223.7, "Alps": 384.2, "Leonardo": 243.1, "Summit": 153.6}
	for _, m := range cluster.Machines() {
		n := sizes[m.Name]
		r := cluster.Predict(m, 1024, n, cluster.DefaultTile, tile.VariantDPHP, cluster.DefaultPolicy())
		t.Rows = append(t.Rows, []string{
			m.Name, m.GPU.Name, f("%d", r.GPUs), f("%.2fM", float64(n)/1e6),
			f("%.1f", r.PFlops), f("%.1f", r.PFlops*1000/float64(r.GPUs)),
			f("%.1f", paper[m.Name]), f("%.1f", r.MemBytesPerGPU/1e9),
		})
	}
	t.Notes = append(t.Notes, "paper TF/GPU: Frontier 54.6, Alps 93.8, Leonardo 57.2, Summit 25.0")
	return t
}

// Storage regenerates the petabyte-savings analysis (paper Sections I
// and VI).
func Storage() Table {
	t := Table{
		ID:     "storage",
		Title:  "Storage: archiving ultra-resolution ensembles vs storing the emulator",
		Header: []string{"scenario", "raw", "emulator", "ratio", "saved_per_year"},
	}
	for _, members := range []int{1, 10, 50, 100} {
		r := storagemodel.PaperScaleReport(members)
		t.Rows = append(t.Rows, []string{
			f("%d members, 35y hourly at 0.034 deg", members),
			f("%.2f PB", float64(r.RawBytes)/1e15),
			f("%.1f GB", float64(r.ModelBytes)/1e9),
			f("%.0fx", r.Ratio),
			f("$%.0f", r.SavedYearUSD),
		})
	}
	t.Notes = append(t.Notes,
		f("context: CMIP6 archive ~28 PB; storage cost $%.0f/TB/year (paper Section I); a single 0.034-deg hourly year is %d billion points",
			storagemodel.CostPerTBYearUSD, storagemodel.UltraResolutionPointsPerYear()/1e9),
		f("paper training sets reproduced exactly: %d billion hourly + %d billion daily points",
			storagemodel.ERA5HourlyPoints()/1e9, storagemodel.ERA5DailyPoints()/1e9))
	return t
}

// Runtime exercises the real shared-memory task runtime and the
// mixed-precision solver on this host: kernel counts, dataflow overlap,
// conversion policies, and factor accuracy (the paper's Section III-C/D
// mechanics, measured rather than modeled).
func Runtime() Table {
	t := Table{
		ID:    "runtime",
		Title: "Real task-runtime execution of the tile Cholesky on this host",
		Header: []string{"variant", "policy", "seconds", "tasks", "edges",
			"parallel_eff", "conversions", "moved_MB", "factor_rel_err"},
	}
	const n, b = 384, 64
	a := linalg.ExpCovariance(n, 6)
	dense := a.Copy()
	_ = dense.Cholesky()
	for _, v := range tile.Variants {
		for _, sender := range []bool{false, true} {
			s := tile.FromDense(a, b, v.Map(n/b))
			start := time.Now()
			res, err := mpchol.Factor(s, mpchol.Options{SenderConvert: sender})
			if err != nil {
				t.Notes = append(t.Notes, f("%v: %v", v, err))
				continue
			}
			el := time.Since(start).Seconds()
			l := s.ToDense()
			num := 0.0
			den := 0.0
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					d := l.At(i, j) - dense.At(i, j)
					num += d * d
					den += dense.At(i, j) * dense.At(i, j)
				}
			}
			pol := "recv"
			if sender {
				pol = "send"
			}
			t.Rows = append(t.Rows, []string{
				v.String(), pol, f("%.3f", el),
				f("%d", res.Stats.Tasks), f("%d", res.Stats.Edges),
				f("%.2f", res.Stats.Efficiency()),
				f("%d", res.Conversions), f("%.2f", float64(res.MovedBytes)/1e6),
				f("%.2e", sqrtf(num/den)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"CPU kernels cannot show GPU tensor-core speedups (HP computes via float32 here); the byte and conversion counts are the quantities the cluster model prices")
	return t
}

// MixedPrecisionAccuracy sweeps random SPD matrices through all variants
// (an ablation supporting Fig. 4's accuracy claims).
func MixedPrecisionAccuracy(seed int64) Table {
	t := Table{
		ID:     "accuracy",
		Title:  "Factor reconstruction error ||LL^T - A||_F/||A||_F by variant",
		Header: []string{"matrix", "DP", "DP/SP", "DP/SP/HP", "DP/HP"},
	}
	rng := rand.New(rand.NewSource(seed))
	mats := map[string]*linalg.Matrix{
		"exp-covariance": linalg.ExpCovariance(256, 8),
		"random-spd":     linalg.RandomSPD(rng, 256, 1),
	}
	for name, a := range mats {
		row := []string{name}
		for _, v := range tile.Variants {
			l, _, err := mpchol.FactorDense(a, 64, v, mpchol.Options{SenderConvert: true})
			if err != nil {
				row = append(row, "ERR")
				continue
			}
			n := a.Rows
			rec := linalg.NewMatrix(n, n)
			linalg.Gemm(linalg.NoTrans, linalg.Transpose, n, n, n, 1.0, l.Data, n, l.Data, n, 0.0, rec.Data, n)
			num, den := 0.0, 0.0
			for i, v2 := range rec.Data {
				d := v2 - a.Data[i]
				num += d * d
				den += a.Data[i] * a.Data[i]
			}
			row = append(row, f("%.2e", sqrtf(num/den)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Energy evaluates energy-to-solution across variants and machines (the
// power-reduction claim of Section III-D / [35]).
func Energy() Table {
	t := Table{
		ID:     "energy",
		Title:  "Energy-to-solution of the 8.39M covariance factorization on 1,024 nodes",
		Header: []string{"system", "variant", "MWh", "GFlops_per_W", "vs_DP"},
	}
	for _, m := range cluster.Machines() {
		cmp := cluster.EnergyComparison(m, 1024, 8388608, cluster.DefaultTile, cluster.DefaultPolicy())
		for _, v := range tile.Variants {
			r := cluster.Predict(m, 1024, 8388608, cluster.DefaultTile, v, cluster.DefaultPolicy())
			e := cluster.EstimateEnergy(m, r)
			t.Rows = append(t.Rows, []string{
				m.Name, v.String(), f("%.2f", e.TotalMWh()),
				f("%.1f", r.GFlopsPerWatt(e)), f("%.2fx", cmp[v]),
			})
		}
	}
	t.Notes = append(t.Notes,
		"mixed precision cuts energy roughly with its speedup; on A100 (FP64 tensor = FP32 rate) DP/SP buys memory rather than energy")
	return t
}

// Extremes validates emulated tails against simulated tails (the
// motivating use case of Section I: "how weather and extremes will be
// affected").
func Extremes(c ScienceConfig) (Table, error) {
	t := Table{
		ID:     "extremes",
		Title:  "Tail behaviour: simulation vs emulation",
		Header: []string{"metric", "simulation", "emulation"},
	}
	m, sim, err := c.runPipeline(tile.VariantDPHP)
	if err != nil {
		return t, err
	}
	emu, err := m.Emulate(c.Seed+5, 0, len(sim))
	if err != nil {
		return t, err
	}
	tc := stats.CompareTails(sim, emu, 0.95)
	t.Rows = append(t.Rows,
		[]string{"q999 (K)", f("%.2f", tc.TailQuantileSim), f("%.2f", tc.TailQuantileEmu)},
		[]string{"exceedance RMSE @ sim q95", f("%.4f", tc.ExceedRMSE), ""},
	)
	spellSim := stats.MaxSpellLength(sim, tc.Threshold)
	spellEmu := stats.MaxSpellLength(emu, tc.Threshold)
	meanInt := func(xs []int) float64 {
		s := 0
		for _, v := range xs {
			s += v
		}
		return float64(s) / float64(len(xs))
	}
	t.Rows = append(t.Rows, []string{"mean max hot-spell (steps)",
		f("%.2f", meanInt(spellSim)), f("%.2f", meanInt(spellEmu))})
	return t, nil
}
