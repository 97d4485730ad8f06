package emulator

import (
	"fmt"
	"math/rand"

	"exaclim/internal/sphere"
)

// Scenario pairs a name with the annual radiative forcing an ensemble is
// emulated under. This is the "multiple runs with varied parameter values
// for a single emissions scenario" use case of Section I: one trained
// model replays any forcing pathway without retraining.
type Scenario struct {
	Name string
	// AnnualRF replaces the training forcing record. It must cover the
	// trend fit's Lead years before emulation step 0 plus every year the
	// campaign reaches; nil keeps the training forcing.
	AnnualRF []float64
}

// EnsembleSpec sizes an emulation campaign.
type EnsembleSpec struct {
	// Members is the number of emulated realizations per scenario.
	Members int
	// T0 is the training-step offset of the first emulated step.
	T0 int
	// Steps is the number of emulated steps per member.
	Steps int
	// BaseSeed seeds the campaign; member i of scenario s draws from the
	// deterministic stream seeded with MemberSeed(BaseSeed, i, s).
	BaseSeed int64
	// Scenarios lists forcing pathways; empty means a single scenario
	// under the training forcing.
	Scenarios []Scenario
	// Workers bounds concurrently generated members; 0 means GOMAXPROCS.
	Workers int
}

// MemberSeed derives the RNG seed of ensemble member `member` under
// scenario index `scenario` from a campaign base seed, using a
// splitmix64-style mix so nearby (member, scenario) pairs get
// statistically independent streams. EmulateEnsemble uses it internally;
// it is exported so a serial loop over Emulate(MemberSeed(base, i, s),
// ...) reproduces a campaign member exactly.
func MemberSeed(base int64, member, scenario int) int64 {
	x := uint64(base)
	x += 0x9e3779b97f4a7c15 * (uint64(member) + 1)
	x += 0xc2b2ae3d27d4eb4f * (uint64(scenario) + 1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// EmulateEnsemble generates Members x max(1, len(Scenarios)) emulated
// series from one trained model, streaming every field to emit so the
// caller never holds members x steps fields in memory. It runs the
// emulator's one generation loop once per scenario with one RNG per
// member: all members of a scenario advance together as the columns of
// one VAR state matrix, and the member fan-out happens at the synthesis
// stage, which dominates the per-step cost.
//
// Concurrency contract: emit may be called from several goroutines at
// once (synchronize in the callback if it writes shared state), but
// within one (member, scenario) pair steps arrive strictly in order and
// never concurrently (each step happens-before the next). The field
// passed to emit is worker scratch reused for later steps — copy it to
// retain. Each member's series is byte-identical to a serial
// Emulate(MemberSeed(spec.BaseSeed, member, scenario), spec.T0,
// spec.Steps) under the same scenario forcing.
func (m *Model) EmulateEnsemble(spec EnsembleSpec, emit func(member, scenario, t int, f sphere.Field)) error {
	if spec.Members < 1 {
		return fmt.Errorf("emulator: ensemble needs >= 1 member, got %d", spec.Members)
	}
	if spec.Steps < 1 {
		return fmt.Errorf("emulator: ensemble needs >= 1 step, got %d", spec.Steps)
	}
	if spec.T0 < 0 {
		return fmt.Errorf("emulator: ensemble T0 %d must be >= 0", spec.T0)
	}
	scenarios := spec.Scenarios
	if len(scenarios) == 0 {
		scenarios = []Scenario{{Name: "training-forcing"}}
	}
	for s, sc := range scenarios {
		rngs := make([]*rand.Rand, spec.Members)
		for member := range rngs {
			rngs[member] = rand.New(rand.NewSource(MemberSeed(spec.BaseSeed, member, s)))
		}
		err := m.generate(m.fitUnder(sc.AnnualRF), rngs, spec.T0, spec.Steps, spec.Workers, func(member, t int, f sphere.Field) {
			emit(member, s, t, f)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
