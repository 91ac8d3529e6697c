package sim

import "testing"

// spin issues an endless stream of compute ops — the minimal
// steady-state op workload for allocation measurement.
type spin struct{}

func (spin) Name() string   { return "spin" }
func (spin) Begin(*Machine) {}
func (spin) Step(OpResult) (Op, bool) {
	return Op{Kind: OpCompute, Cycles: 50}, true
}

// TestOpPathAllocationFree pins the engine's zero-allocation contract:
// once processes are started, executing ops — a direct Step call and
// the by-value pending op per operation — allocates nothing.
func TestOpPathAllocationFree(t *testing.T) {
	// "step" names the op path measured: one Step call per op.
	t.Run("step", func(t *testing.T) {
		s := MustNew(TestConfig())
		for ctx := 0; ctx < 4; ctx++ {
			s.Spawn(spin{}, Pin(ctx))
		}
		// Warm-up: start the processes and reach steady state.
		until := uint64(100_000)
		s.Run(until)
		allocs := testing.AllocsPerRun(20, func() {
			until += 200_000
			s.Run(until)
		})
		if allocs != 0 {
			t.Errorf("%v allocs per Run chunk in steady state, want 0", allocs)
		}
	})
}
