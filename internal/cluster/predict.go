package cluster

import (
	"fmt"
	"math"

	"exaclim/internal/tile"
)

// Policy captures the runtime-level choices the paper evaluates.
type Policy struct {
	// SenderConvert enables sender-side down-conversion of panel tiles
	// (Fig. 5 "New"); otherwise every consumer converts privately and
	// full-precision payloads travel ("Old").
	SenderConvert bool
	// LatencyPriority selects latency-prioritized collective ordering
	// (Section III-C); false models the original bandwidth-maximizing
	// strategy, which starves strong-scaling runs at large node counts.
	LatencyPriority bool
}

// DefaultPolicy is the paper's optimized configuration.
func DefaultPolicy() Policy {
	return Policy{SenderConvert: true, LatencyPriority: true}
}

// DefaultTile is the tile edge used at paper scale.
const DefaultTile = 2048

// Run is one predicted execution.
type Run struct {
	Machine string
	Nodes   int
	GPUs    int
	N       int64
	TileB   int
	NT      int
	Variant tile.Variant
	Policy  Policy

	Seconds     float64
	PFlops      float64
	PctOfDPPeak float64 // against the DP peak of the same node count

	// Component times (seconds): precision-weighted compute, conversion
	// overhead, network transfer, panel dependency chain, runtime
	// serialization overhead.
	TWork, TConv, TComm, TChain, TOvh float64
	// CommBytes is the total network transport volume.
	CommBytes float64
	// MemBytesPerGPU is the matrix + panel footprint per GPU.
	MemBytesPerGPU float64
}

// String renders the run like a row of the paper's performance tables.
func (r Run) String() string {
	return fmt.Sprintf("%-9s %5d nodes %6d GPUs  n=%8.2fM  %-8s  %8.1f PF (%5.1f%% DP peak, %7.1f s)",
		r.Machine, r.Nodes, r.GPUs, float64(r.N)/1e6, r.Variant, r.PFlops, r.PctOfDPPeak*100, r.Seconds)
}

// precClass is a run of tile diagonals sharing a storage precision.
type precClass struct {
	prec     tile.Precision
	dLo, dHi int // inclusive distance range (i-j)
}

// offDiagClasses returns the variant's off-diagonal precision classes.
func offDiagClasses(v tile.Variant, nt int) []precClass {
	if nt < 2 {
		return nil
	}
	switch v {
	case tile.VariantDP:
		return []precClass{{tile.FP64, 1, nt - 1}}
	case tile.VariantDPSP:
		return []precClass{{tile.FP32, 1, nt - 1}}
	case tile.VariantDPSPHP:
		sp := (nt*5 + 99) / 100
		if sp < 1 {
			sp = 1
		}
		if sp >= nt-1 {
			return []precClass{{tile.FP32, 1, nt - 1}}
		}
		return []precClass{
			{tile.FP32, 1, sp},
			{tile.FP16, sp + 1, nt - 1},
		}
	case tile.VariantDPHP:
		return []precClass{{tile.FP16, 1, nt - 1}}
	}
	panic("cluster: unknown variant")
}

// sizeEff models kernel efficiency loss on small tiles: GEMM engines
// (especially tensor cores) need large tiles to reach their sustained
// rate.
func sizeEff(p tile.Precision, b int) float64 {
	var half float64
	switch p {
	case tile.FP64:
		half = 96
	case tile.FP32:
		half = 128
	case tile.FP16:
		half = 512
	}
	return float64(b) / (float64(b) + half)
}

// rate returns the sustained TFlop/s of one GPU for tiles of edge b at
// precision p.
func rate(g GPUSpec, p tile.Precision, b int) float64 {
	return g.PeakTF[p] * g.Eff[p] * sizeEff(p, b)
}

// convChargeFraction is the fraction of conversion bytes that cannot be
// hidden behind the consuming kernel: HP (tensor-core) kernels need an
// explicit conversion pass, SP kernels largely convert during loads.
func convChargeFraction(p tile.Precision) float64 {
	switch p {
	case tile.FP16:
		return 1.0
	case tile.FP32:
		return 0.03
	default:
		return 0
	}
}

// Predict estimates one distributed factorization. n is the matrix
// dimension, b the tile edge.
func Predict(m MachineSpec, nodes int, n int64, b int, v tile.Variant, pol Policy) Run {
	nt := int(n / int64(b))
	if nt < 1 {
		nt = 1
	}
	G := float64(m.GPUs(nodes))
	bf := float64(b)
	tileFlops := bf * bf * bf // one GEMM is 2b^3, one TRSM b^3, POTRF b^3/3

	run := Run{
		Machine: m.Name, Nodes: nodes, GPUs: int(G),
		N: n, TileB: b, NT: nt, Variant: v, Policy: pol,
	}

	// ---- Compute time by precision class ------------------------------
	// POTRF and SYRK write diagonal (DP) tiles; TRSM panels are computed
	// in DP for stability; GEMM updates run at the class precision.
	ntf := float64(nt)
	dpFlops := ntf*tileFlops/3 + tileFlops*ntf*(ntf-1)/2 + tileFlops*ntf*(ntf-1)/2 // POTRF + SYRK + TRSM
	tWork := dpFlops / (G * rate(m.GPU, tile.FP64, b) * 1e12)

	var gemmFlopsByClass []float64
	classes := offDiagClasses(v, nt)
	for _, c := range classes {
		f := 0.0
		for d := c.dLo; d <= c.dHi; d++ {
			f += tileFlops * float64(nt-1-d) * float64(nt-d) // sum_j j * 2b^3 at distance d
		}
		gemmFlopsByClass = append(gemmFlopsByClass, f)
		tWork += f / (G * rate(m.GPU, c.prec, b) * 1e12)
	}

	// ---- Conversion overhead ------------------------------------------
	// Panel tiles are produced in DP. Consumers at lower precision need
	// conversions: receiver-side converts per consuming GEMM (2 input
	// tiles each), sender-side converts once per panel tile per target
	// precision.
	tConv := 0.0
	convBytes := 0.0
	for ci, c := range classes {
		if c.prec == tile.FP64 {
			continue
		}
		gemmTasks := gemmFlopsByClass[ci] / (2 * tileFlops)
		var conversions float64
		if pol.SenderConvert {
			conversions = ntf * (ntf - 1) / 2 // once per panel tile
		} else {
			conversions = 2 * gemmTasks
		}
		bytes := conversions * 8 * bf * bf
		convBytes += bytes
		tConv += bytes * convChargeFraction(c.prec) / (G * m.GPU.ConvertGBs * 1e9)
	}

	// ---- Communication -------------------------------------------------
	// Every panel tile is broadcast along its block row and column of a
	// near-square node grid: ~2*sqrt(nodes) receiving nodes per tile.
	// Sender-side conversion ships the narrowed payload; the legacy
	// receiver-side runtime shipped panels at its communication type:
	// DP for the DP variant, SP otherwise (the banded-MP runtime of [34]
	// had no half-precision wire format, so HP tiles traveled as SP).
	outer := classes[len(classes)-1].prec // dominant far-field precision
	var transportBytes float64
	if pol.SenderConvert {
		transportBytes = float64(outer.Bytes()) * bf * bf
	} else if outer == tile.FP64 {
		transportBytes = 8 * bf * bf
	} else {
		transportBytes = 4 * bf * bf
	}
	panelTiles := ntf * (ntf - 1) / 2
	// Each panel tile reaches the ~sqrt(G) processes of its block row and
	// the ~sqrt(G) of its block column once each (binomial trees spread
	// relaying over all participants).
	fan := 2 * math.Sqrt(G) * m.FanScale
	if fan > G {
		fan = G
	}
	commBytes := panelTiles * transportBytes * fan
	tComm := commBytes / (float64(nodes) * m.InjectionGBs * 1e9 * m.NetEff)

	// ---- Panel dependency chain -----------------------------------------
	// The critical path alternates POTRF -> TRSM -> GEMM across steps,
	// plus one broadcast latency per step. Bandwidth-priority collectives
	// queue behind bulk traffic at scale (the starvation the paper fixed).
	latency := m.LatencyUS * 1e-6 * math.Log2(float64(nodes)+1)
	if !pol.LatencyPriority {
		latency *= 1 + float64(nodes)/256
	}
	chainPrec := tile.FP64
	if len(classes) > 0 {
		chainPrec = classes[0].prec
	}
	stepChain := tileFlops/3/(rate(m.GPU, tile.FP64, b)*1e12) + // POTRF
		tileFlops/(rate(m.GPU, tile.FP64, b)*1e12) + // TRSM (DP panel)
		2*tileFlops/(rate(m.GPU, chainPrec, b)*1e12) + // first GEMM of next panel
		2*latency
	tChain := ntf * stepChain

	// ---- Runtime scale overhead ------------------------------------------
	// Per-step serialization that grows with the machine: dynamic
	// collective-group construction, scheduler contention, and (on
	// Frontier) MCM sharing. Calibrated per machine against the paper's
	// measured scale curves.
	tOvh := ntf * m.StepOvhMS * 1e-3 * math.Pow(float64(nodes), m.OvhExp)
	if !pol.LatencyPriority {
		tOvh *= 2 // bandwidth-priority collectives stall panel steps
	}

	// ---- Combine ---------------------------------------------------------
	// Smooth maximum: overlap hides the smaller of compute/comm/chain
	// (p-norm with p=3 leaves a realistic shoulder); the runtime overhead
	// is serialized on top.
	busy := tWork + tConv
	p := 3.0
	total := math.Pow(math.Pow(busy, p)+math.Pow(tComm, p)+math.Pow(tChain, p), 1/p) + tOvh

	flops := float64(n) * float64(n) * float64(n) / 3
	run.Seconds = total
	run.PFlops = flops / total / 1e15
	run.PctOfDPPeak = run.PFlops / m.PeakPFDP(nodes)
	run.TWork, run.TConv, run.TComm, run.TChain = tWork, tConv, tComm, tChain
	run.TOvh = tOvh
	run.CommBytes = commBytes

	// ---- Memory ----------------------------------------------------------
	run.MemBytesPerGPU = memBytes(v, nt, b) / G
	return run
}

// memBytes returns the tile storage of the lower triangle plus DP panel
// working copies and runtime buffers.
func memBytes(v tile.Variant, nt, b int) float64 {
	bf := float64(b)
	bytes := float64(nt) * 8 * bf * bf // DP diagonal
	for _, c := range offDiagClasses(v, nt) {
		tiles := 0.0
		for d := c.dLo; d <= c.dHi; d++ {
			tiles += float64(nt - d)
		}
		bytes += tiles * float64(c.prec.Bytes()) * bf * bf
	}
	// DP panel copies plus PaRSEC communication buffers (~12% overhead,
	// Section III-C's "minimizing memory waste").
	bytes += float64(nt) * 8 * bf * bf
	return bytes * 1.12
}

// MaxMatrixSize returns the largest matrix dimension (a multiple of the
// tile size) whose factorization fits the device memory of the given
// node count, the paper's "maxing out the device memory" sizing for
// Table I.
func MaxMatrixSize(m MachineSpec, nodes int, b int, v tile.Variant) int64 {
	budget := float64(m.GPUs(nodes)) * m.GPU.MemGB * 1e9 * 0.9
	lo, hi := 1, 1<<22
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if memBytes(v, mid, b) <= budget {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return int64(lo) * int64(b)
}
