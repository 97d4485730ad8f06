package cluster

import (
	"math"
	"testing"

	"exaclim/internal/tile"
)

func relErr(got, want float64) float64 { return math.Abs(got/want - 1) }

// TestTable1 reproduces the paper's Table I: DP/HP performance on 1,024
// nodes of each system, with the paper's matrix sizes. Tolerance 20%.
func TestTable1(t *testing.T) {
	cases := []struct {
		m      MachineSpec
		n      int64
		wantPF float64
	}{
		{Frontier(), 8390000, 223.7},
		{Alps(), 10490000, 384.2},
		{Leonardo(), 8390000, 243.1},
		{Summit(), 6290000, 153.6},
	}
	for _, c := range cases {
		r := Predict(c.m, 1024, c.n, DefaultTile, tile.VariantDPHP, DefaultPolicy())
		if relErr(r.PFlops, c.wantPF) > 0.20 {
			t.Errorf("%s: %0.1f PF, paper %0.1f (err %+.0f%%)", c.m.Name, r.PFlops, c.wantPF, 100*(r.PFlops/c.wantPF-1))
		}
	}
	// Machine ordering must match the paper: Alps > Leonardo > Frontier > Summit.
	var pfs []float64
	for _, c := range cases {
		pfs = append(pfs, Predict(c.m, 1024, c.n, DefaultTile, tile.VariantDPHP, DefaultPolicy()).PFlops)
	}
	if !(pfs[1] > pfs[2] && pfs[2] > pfs[0] && pfs[0] > pfs[3]) {
		t.Errorf("Table I machine ordering wrong: Frontier=%.0f Alps=%.0f Leonardo=%.0f Summit=%.0f",
			pfs[0], pfs[1], pfs[2], pfs[3])
	}
}

// TestFig6 reproduces the Summit 2,048-node experiment: DP near 61.7% of
// peak and the mixed-precision speedup ladder 2.0x / 3.2x / 5.2x.
func TestFig6(t *testing.T) {
	const n = 8390000
	sum := Summit()
	dp := Predict(sum, 2048, n, DefaultTile, tile.VariantDP, DefaultPolicy())
	if relErr(dp.PctOfDPPeak, 0.617) > 0.15 {
		t.Errorf("DP percent of peak %0.1f%%, paper 61.7%%", dp.PctOfDPPeak*100)
	}
	speedups := map[tile.Variant]float64{
		tile.VariantDPSP:   2.0,
		tile.VariantDPSPHP: 3.2,
		tile.VariantDPHP:   5.2,
	}
	prev := 1.0
	for _, v := range []tile.Variant{tile.VariantDPSP, tile.VariantDPSPHP, tile.VariantDPHP} {
		r := Predict(sum, 2048, n, DefaultTile, v, DefaultPolicy())
		s := dp.Seconds / r.Seconds
		if relErr(s, speedups[v]) > 0.25 {
			t.Errorf("%v speedup %.2f, paper %.1f", v, s, speedups[v])
		}
		if s <= prev {
			t.Errorf("speedup ladder not monotone at %v: %.2f <= %.2f", v, s, prev)
		}
		prev = s
	}
	hp := Predict(sum, 2048, n, DefaultTile, tile.VariantDPHP, DefaultPolicy())
	if relErr(hp.PFlops, 304.84) > 0.20 {
		t.Errorf("DP/HP %0.1f PF, paper 304.84", hp.PFlops)
	}
}

// TestFig8 reproduces the largest-scale runs on all four systems.
func TestFig8(t *testing.T) {
	cases := []struct {
		m      MachineSpec
		nodes  int
		n      int64
		wantPF float64
	}{
		{Frontier(), 2048, 12580000, 316},
		{Frontier(), 4096, 16780000, 523},
		{Frontier(), 6400, 20970000, 715},
		{Frontier(), 9025, 27240000, 976},
		{Alps(), 1024, 10490000, 364},
		{Alps(), 1600, 14420000, 623},
		{Alps(), 1936, 15730000, 739},
		{Summit(), 3072, 12580000, 375},
		{Leonardo(), 1024, 8390000, 243},
	}
	for _, c := range cases {
		r := Predict(c.m, c.nodes, c.n, DefaultTile, tile.VariantDPHP, DefaultPolicy())
		if relErr(r.PFlops, c.wantPF) > 0.20 {
			t.Errorf("%s %d nodes n=%.2fM: %0.1f PF, paper %0.1f (err %+.0f%%)",
				c.m.Name, c.nodes, float64(c.n)/1e6, r.PFlops, c.wantPF, 100*(r.PFlops/c.wantPF-1))
		}
	}
	// The headline: Frontier at 9,025 nodes approaches an exaflop/s.
	r := Predict(Frontier(), 9025, 27240000, DefaultTile, tile.VariantDPHP, DefaultPolicy())
	if r.PFlops < 800 || r.PFlops > 1200 {
		t.Errorf("Frontier flagship run %0.1f PF, want ~976", r.PFlops)
	}
}

// TestFig7StrongScaling checks the strong-scaling efficiency ordering:
// DP/SP scales best (72% in the paper); the HP-heavy variants lose
// efficiency to per-step overheads. The absolute DP point is a known
// deviation: the model keeps DP compute-bound.
func TestFig7StrongScaling(t *testing.T) {
	const n = 4200000
	sum := Summit()
	eff := func(v tile.Variant) float64 {
		t512 := Predict(sum, 512, n, DefaultTile, v, DefaultPolicy()).Seconds
		t2048 := Predict(sum, 2048, n, DefaultTile, v, DefaultPolicy()).Seconds
		return t512 / (4 * t2048)
	}
	effSP := eff(tile.VariantDPSP)
	effSPHP := eff(tile.VariantDPSPHP)
	effHP := eff(tile.VariantDPHP)
	if relErr(effSP, 0.72) > 0.15 {
		t.Errorf("DP/SP strong efficiency %.2f, paper 0.72", effSP)
	}
	if relErr(effSPHP, 0.60) > 0.15 {
		t.Errorf("DP/SP/HP strong efficiency %.2f, paper 0.60", effSPHP)
	}
	if relErr(effHP, 0.56) > 0.15 {
		t.Errorf("DP/HP strong efficiency %.2f, paper 0.56", effHP)
	}
	// Ordering among the mixed variants matches the paper.
	if !(effSP > effSPHP && effSPHP > effHP) {
		t.Errorf("strong-scaling ordering wrong: SP %.2f, SP/HP %.2f, HP %.2f", effSP, effSPHP, effHP)
	}
	// Every efficiency is below 1 and above 0.3.
	for _, e := range []float64{effSP, effSPHP, effHP, eff(tile.VariantDP)} {
		if e < 0.3 || e > 1.0 {
			t.Errorf("efficiency %.2f out of range", e)
		}
	}
}

// TestFig7WeakScaling: with per-GPU-proportional problem sizes, per-GPU
// performance stays within ~15% of the small-scale baseline up to 2,048
// nodes (the paper reports 92-111%).
func TestFig7WeakScaling(t *testing.T) {
	sum := Summit()
	for _, v := range []tile.Variant{tile.VariantDP, tile.VariantDPSP, tile.VariantDPHP} {
		base := Predict(sum, 64, 1650000, DefaultTile, v, DefaultPolicy())
		perGPU := base.PFlops / float64(base.GPUs)
		for _, nodes := range []int{256, 1024, 2048} {
			n := int64(1650000 * math.Sqrt(float64(nodes)/64))
			n -= n % int64(DefaultTile)
			r := Predict(sum, nodes, n, DefaultTile, v, DefaultPolicy())
			rel := (r.PFlops / float64(r.GPUs)) / perGPU
			if rel < 0.82 || rel > 1.15 {
				t.Errorf("%v weak scaling at %d nodes: %0.0f%% of baseline", v, nodes, rel*100)
			}
		}
	}
}

// TestFig5ConversionPolicy: sender-side conversion speeds up DP/HP by
// ~1.5x and barely moves DP/SP, as in the paper (1.53x and 1.06x).
func TestFig5ConversionPolicy(t *testing.T) {
	sum := Summit()
	old := Policy{SenderConvert: false, LatencyPriority: true}
	neu := DefaultPolicy()
	ratio := func(v tile.Variant, n int64) float64 {
		return Predict(sum, 128, n, 1024, v, old).Seconds /
			Predict(sum, 128, n, 1024, v, neu).Seconds
	}
	for _, n := range []int64{660000, 860000, 1060000, 1270000} {
		hp := ratio(tile.VariantDPHP, n)
		sp := ratio(tile.VariantDPSP, n)
		dp := ratio(tile.VariantDP, n)
		if hp < 1.25 || hp > 1.8 {
			t.Errorf("n=%d: DP/HP sender-conversion speedup %.2f, paper 1.53", n, hp)
		}
		if sp < 0.95 || sp > 1.25 {
			t.Errorf("n=%d: DP/SP speedup %.2f, paper 1.06", n, sp)
		}
		if dp < 0.99 || dp > 1.2 {
			t.Errorf("n=%d: DP speedup %.2f, paper 1.15 (model attributes DP gains elsewhere)", n, dp)
		}
		if hp <= sp {
			t.Errorf("n=%d: DP/HP gain %.2f should exceed DP/SP gain %.2f", n, hp, sp)
		}
	}
}

// TestCollectivePolicy: latency-prioritized collectives must win at large
// node counts (the Section III-C finding) and matter little at small
// scale.
func TestCollectivePolicy(t *testing.T) {
	sum := Summit()
	latFirst := DefaultPolicy()
	bwFirst := Policy{SenderConvert: true, LatencyPriority: false}
	small := Predict(sum, 64, 2097152, DefaultTile, tile.VariantDPHP, bwFirst).Seconds /
		Predict(sum, 64, 2097152, DefaultTile, tile.VariantDPHP, latFirst).Seconds
	big := Predict(sum, 2048, 6291456, DefaultTile, tile.VariantDPHP, bwFirst).Seconds /
		Predict(sum, 2048, 6291456, DefaultTile, tile.VariantDPHP, latFirst).Seconds
	if big <= small {
		t.Errorf("latency-priority advantage should grow with scale: small %.3f, big %.3f", small, big)
	}
	if big < 1.05 {
		t.Errorf("latency-priority collectives should clearly win at 2048 nodes (ratio %.3f)", big)
	}
}

// TestMemoryModel: the paper's matrix sizes fit the modeled device
// memory, and MaxMatrixSize is consistent (the paper sized runs below
// the raw capacity to leave room for runtime buffers).
func TestMemoryModel(t *testing.T) {
	cases := []struct {
		m     MachineSpec
		nodes int
		n     int64
	}{
		{Frontier(), 1024, 8390000},
		{Alps(), 1024, 10490000},
		{Leonardo(), 1024, 8390000},
		{Summit(), 1024, 6290000},
		{Summit(), 3072, 12580000},
		{Frontier(), 9025, 27240000},
	}
	for _, c := range cases {
		r := Predict(c.m, c.nodes, c.n, DefaultTile, tile.VariantDPHP, DefaultPolicy())
		if r.MemBytesPerGPU > c.m.GPU.MemGB*1e9 {
			t.Errorf("%s %d nodes n=%.2fM: %.1f GB/GPU exceeds %.0f GB",
				c.m.Name, c.nodes, float64(c.n)/1e6, r.MemBytesPerGPU/1e9, c.m.GPU.MemGB)
		}
		maxN := MaxMatrixSize(c.m, c.nodes, DefaultTile, tile.VariantDPHP)
		if maxN < c.n {
			t.Errorf("%s %d nodes: MaxMatrixSize %.2fM below the paper's %.2fM",
				c.m.Name, c.nodes, float64(maxN)/1e6, float64(c.n)/1e6)
		}
		if maxN > 4*c.n {
			t.Errorf("%s %d nodes: MaxMatrixSize %.2fM implausibly far above the paper's %.2fM",
				c.m.Name, c.nodes, float64(maxN)/1e6, float64(c.n)/1e6)
		}
	}
	// Mixed precision extends the maximum problem size vs full DP.
	dpMax := MaxMatrixSize(Summit(), 1024, DefaultTile, tile.VariantDP)
	hpMax := MaxMatrixSize(Summit(), 1024, DefaultTile, tile.VariantDPHP)
	if float64(hpMax) < 1.5*float64(dpMax) {
		t.Errorf("DP/HP max size %.2fM should be well above DP %.2fM", float64(hpMax)/1e6, float64(dpMax)/1e6)
	}
}

// TestVariantMemoryOrdering: memory per GPU strictly decreases with
// precision aggressiveness at fixed n.
func TestVariantMemoryOrdering(t *testing.T) {
	prev := math.Inf(1)
	for _, v := range tile.Variants {
		r := Predict(Summit(), 1024, 6290000, DefaultTile, v, DefaultPolicy())
		if r.MemBytesPerGPU >= prev {
			t.Errorf("%v memory %.1f GB/GPU not below previous variant", v, r.MemBytesPerGPU/1e9)
		}
		prev = r.MemBytesPerGPU
	}
}

// TestDESAgreesWithPredictSmallScale cross-validates the analytic model
// against the discrete-event simulation where the DES is tractable. The
// comparison strips Predict's calibrated runtime-overhead term (a
// paper-scale effect the DES does not model) and allows a generous
// factor: the DES overlaps every transfer (no NIC serialization, an
// optimistic bound) while Predict charges all broadcast bytes to node
// injection (a conservative bound), so the two bracket reality.
func TestDESAgreesWithPredictSmallScale(t *testing.T) {
	sum := Summit()
	for _, v := range []tile.Variant{tile.VariantDP, tile.VariantDPHP} {
		for _, nodes := range []int{4, 16} {
			const nt, b = 96, 512
			des := SimulateDES(sum, nodes, nt, b, v, DefaultPolicy())
			pred := Predict(sum, nodes, int64(nt*b), b, v, DefaultPolicy())
			ratio := (pred.Seconds - pred.TOvh) / des.Seconds
			if ratio < 0.4 || ratio > 4.0 {
				t.Errorf("%v %d nodes: analytic core %.2fs vs DES %.2fs (ratio %.2f)", v, nodes, pred.Seconds-pred.TOvh, des.Seconds, ratio)
			}
			if des.Utilization <= 0 || des.Utilization > 1 {
				t.Errorf("DES utilization %.2f out of range", des.Utilization)
			}
			wantTasks := nt + nt*(nt-1)/2 // POTRFs + TRSMs
			for k := 0; k < nt; k++ {
				rem := nt - k - 1
				wantTasks += rem * (rem + 1) / 2
			}
			if des.Tasks != wantTasks {
				t.Errorf("DES ran %d tasks, want %d", des.Tasks, wantTasks)
			}
		}
	}
}

// TestDESVariantSpeedups: in the DES, mixed precision beats DP and
// sender conversion reduces communication volume.
func TestDESVariantSpeedups(t *testing.T) {
	sum := Summit()
	const nt, b, nodes = 64, 512, 8
	dp := SimulateDES(sum, nodes, nt, b, tile.VariantDP, DefaultPolicy())
	hp := SimulateDES(sum, nodes, nt, b, tile.VariantDPHP, DefaultPolicy())
	if hp.Seconds >= dp.Seconds {
		t.Errorf("DES: DP/HP (%.3fs) not faster than DP (%.3fs)", hp.Seconds, dp.Seconds)
	}
	recv := SimulateDES(sum, nodes, nt, b, tile.VariantDPHP, Policy{LatencyPriority: true})
	send := SimulateDES(sum, nodes, nt, b, tile.VariantDPHP, DefaultPolicy())
	if send.CommBytes >= recv.CommBytes {
		t.Errorf("DES: sender conversion moved %d bytes, receiver %d; expected reduction",
			int64(send.CommBytes), int64(recv.CommBytes))
	}
}

// TestPredictScalesDown: the model behaves sanely at the smallest
// configurations (no NaNs, positive times, monotone in n).
func TestPredictSanity(t *testing.T) {
	sum := Summit()
	prev := 0.0
	for _, n := range []int64{1 << 20, 1 << 21, 1 << 22, 1 << 23} {
		r := Predict(sum, 16, n, DefaultTile, tile.VariantDPHP, DefaultPolicy())
		if math.IsNaN(r.Seconds) || r.Seconds <= prev {
			t.Fatalf("time not increasing in n: %v at n=%d", r.Seconds, n)
		}
		prev = r.Seconds
	}
	// More nodes => faster, at fixed problem.
	tPrev := math.Inf(1)
	for _, nodes := range []int{64, 256, 1024} {
		r := Predict(sum, nodes, 4194304, DefaultTile, tile.VariantDPHP, DefaultPolicy())
		if r.Seconds >= tPrev {
			t.Fatalf("time not decreasing in nodes at %d", nodes)
		}
		tPrev = r.Seconds
	}
}

func BenchmarkPredict(b *testing.B) {
	sum := Summit()
	for i := 0; i < b.N; i++ {
		Predict(sum, 2048, 8390000, DefaultTile, tile.VariantDPHP, DefaultPolicy())
	}
}

func BenchmarkDES_NT64(b *testing.B) {
	sum := Summit()
	for i := 0; i < b.N; i++ {
		SimulateDES(sum, 8, 64, 512, tile.VariantDPHP, DefaultPolicy())
	}
}
