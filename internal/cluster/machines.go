// Package cluster models the four GPU supercomputers of the paper
// (Frontier, Alps, Leonardo, Summit) and predicts the performance of the
// distributed mixed-precision tile Cholesky on them.
//
// This environment has two CPU cores, so the machines themselves are the
// one substrate that must be simulated. Two layers are provided and
// cross-validated against each other:
//
//   - Predict: an analytic pipelined-panel model at paper scale
//     (matrix dimensions in the millions, tile grids in the thousands),
//     combining a precision-weighted compute roofline, a block-cyclic
//     broadcast communication volume with collective-policy effects, a
//     panel dependency chain, and precision-conversion overheads.
//   - SimulateDES: a discrete-event list-scheduling simulation of the
//     actual task graph with tile ownership, usable for small tile
//     grids; tests check the analytic model against it.
//
// The GPU rate and network constants are calibrated so the headline
// paper numbers are reproduced within tolerance (pinned by this
// package's tests and quoted in the notes of internal/experiments);
// the *shapes* (variant speedups, scaling efficiencies, machine
// orderings, memory-limited problem sizes) are genuine model outputs.
package cluster

import (
	"exaclim/internal/tile"
)

// GPUSpec describes one accelerator.
type GPUSpec struct {
	Name string
	// PeakTF is the vendor peak in TFlop/s per precision (tensor/matrix
	// engines for SP/HP where they exist).
	PeakTF map[tile.Precision]float64
	// Eff is the sustained fraction of peak achieved by large GEMM tiles
	// in the application (empirical, calibrated).
	Eff map[tile.Precision]float64
	// MemGB is usable device memory.
	MemGB float64
	// ConvertGBs is the achievable precision-conversion throughput in
	// gigabytes of source data per second (memory-bandwidth bound).
	ConvertGBs float64
}

// MachineSpec describes a system.
type MachineSpec struct {
	Name        string
	TotalNodes  int
	GPUsPerNode int
	GPU         GPUSpec
	// InjectionGBs is the per-node network injection bandwidth.
	InjectionGBs float64
	// LatencyUS is the one-way small-message latency in microseconds.
	LatencyUS float64
	// NetEff is the achievable fraction of injection bandwidth under
	// the application's traffic pattern.
	NetEff float64
	// StepOvhMS and OvhExp set the per-panel-step runtime serialization
	// overhead: StepOvhMS * nodes^OvhExp milliseconds per step. This
	// captures dynamic collective-group construction and scheduler costs
	// that grow with the machine (largest on Frontier, whose MCM GPUs
	// share runtime resources); calibrated against the paper's scale
	// curves.
	StepOvhMS float64
	OvhExp    float64
	// FanScale scales the broadcast fan-out (2*sqrt(GPUs) receivers per
	// panel tile) to account for process-grid layout and tree overlap.
	FanScale float64
}

// PeakPFDP returns the theoretical double-precision peak of `nodes`
// nodes in PFlop/s, the denominator of the paper's percent-of-peak.
func (m MachineSpec) PeakPFDP(nodes int) float64 {
	return float64(nodes) * float64(m.GPUsPerNode) * m.GPU.PeakTF[tile.FP64] / 1000
}

// GPUs returns the GPU count of `nodes` nodes.
func (m MachineSpec) GPUs(nodes int) int { return nodes * m.GPUsPerNode }

// The four systems of the paper (Section IV-D), with per-precision peaks
// from vendor datasheets and sustained efficiencies calibrated against
// the paper's measured Flop/s (Table I, Figs. 6 and 8).
//
// Per the paper, an AMD MI250X multi-chip module is counted as one GPU
// (two GCDs), and a GH200 superchip contributes one H100.

// Summit returns ORNL Summit: 4,608 nodes, 6 NVIDIA V100 per node.
func Summit() MachineSpec {
	return MachineSpec{
		Name:        "Summit",
		TotalNodes:  4608,
		GPUsPerNode: 6,
		GPU: GPUSpec{
			Name: "V100",
			PeakTF: map[tile.Precision]float64{
				tile.FP64: 7.8, tile.FP32: 15.7, tile.FP16: 125,
			},
			Eff: map[tile.Precision]float64{
				tile.FP64: 0.723, tile.FP32: 0.696, tile.FP16: 0.278,
			},
			MemGB:      16,
			ConvertGBs: 650,
		},
		InjectionGBs: 23,
		LatencyUS:    3,
		NetEff:       1.0,
		StepOvhMS:    2.5,
		OvhExp:       0.353,
		FanScale:     0.8,
	}
}

// Frontier returns ORNL Frontier: 9,472 nodes, 4 AMD MI250X per node.
func Frontier() MachineSpec {
	return MachineSpec{
		Name:        "Frontier",
		TotalNodes:  9472,
		GPUsPerNode: 4,
		GPU: GPUSpec{
			Name: "MI250X",
			PeakTF: map[tile.Precision]float64{
				tile.FP64: 47.9, tile.FP32: 47.9, tile.FP16: 383,
			},
			Eff: map[tile.Precision]float64{
				tile.FP64: 0.85, tile.FP32: 0.485, tile.FP16: 0.322,
			},
			MemGB:      128,
			ConvertGBs: 900,
		},
		InjectionGBs: 100,
		LatencyUS:    2,
		NetEff:       1.0,
		StepOvhMS:    1.936,
		OvhExp:       0.580,
		FanScale:     0.8,
	}
}

// Alps returns CSCS Alps (Grace-Hopper partition): 2,688 nodes, 4 GH200.
func Alps() MachineSpec {
	return MachineSpec{
		Name:        "Alps",
		TotalNodes:  2688,
		GPUsPerNode: 4,
		GPU: GPUSpec{
			Name: "GH200",
			PeakTF: map[tile.Precision]float64{
				tile.FP64: 34, tile.FP32: 67, tile.FP16: 990,
			},
			Eff: map[tile.Precision]float64{
				tile.FP64: 0.739, tile.FP32: 0.70, tile.FP16: 0.172,
			},
			MemGB:      96,
			ConvertGBs: 1500,
		},
		InjectionGBs: 100,
		LatencyUS:    2,
		NetEff:       0.472,
		StepOvhMS:    0.327,
		OvhExp:       0.591,
		FanScale:     2.532,
	}
}

// Leonardo returns CINECA Leonardo: 3,456 nodes, 4 NVIDIA A100 64GB.
func Leonardo() MachineSpec {
	return MachineSpec{
		Name:        "Leonardo",
		TotalNodes:  3456,
		GPUsPerNode: 4,
		GPU: GPUSpec{
			Name: "A100",
			PeakTF: map[tile.Precision]float64{
				tile.FP64: 19.5, tile.FP32: 19.5, tile.FP16: 312,
			},
			Eff: map[tile.Precision]float64{
				tile.FP64: 0.846, tile.FP32: 0.666, tile.FP16: 0.381,
			},
			MemGB:      64,
			ConvertGBs: 700,
		},
		InjectionGBs: 50,
		LatencyUS:    2,
		NetEff:       0.620,
		StepOvhMS:    1.044,
		OvhExp:       0.423,
		FanScale:     2.244,
	}
}

// Machines lists the four systems in the paper's Table I order.
func Machines() []MachineSpec {
	return []MachineSpec{Frontier(), Alps(), Leonardo(), Summit()}
}
