//go:build !race

package rl

import (
	"math/rand"
	"testing"
)

// TestAllocFreeForward pins inference at zero allocations: every ΔT tuner
// step runs MLP.Forward, so the scratch activation buffers must absorb the
// whole pass.
func TestAllocFreeForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{12, 20, 40, 40, 20}, rng)
	x := make([]float64, 12)
	for i := range x {
		x[i] = rng.Float64()
	}
	m.Forward(x) // warm any lazy state

	if avg := testing.AllocsPerRun(1000, func() { m.Forward(x) }); avg != 0 {
		t.Fatalf("Forward allocates %v/op, want 0", avg)
	}
}

// TestAllocFreeTrainBatch pins the backprop/optimizer step at zero
// allocations once the gradient scratch is in place.
func TestAllocFreeTrainBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP([]int{12, 20, 20, 4}, rng)
	batch := make([]Sample, 16)
	for i := range batch {
		x := make([]float64, 12)
		for j := range x {
			x[j] = rng.Float64()
		}
		batch[i] = Sample{X: x, Action: i % 4, Target: rng.Float64()}
	}
	m.TrainBatch(batch, 1e-3)

	if avg := testing.AllocsPerRun(100, func() { m.TrainBatch(batch, 1e-3) }); avg != 0 {
		t.Fatalf("TrainBatch allocates %v/op, want 0", avg)
	}
}

// TestAllocFreeTrainStep pins the whole agent step — the minibatch draw,
// the DDQN targets, backprop, Adam, the target sync — and Boltzmann action
// selection at zero allocations: both run on scratch the agent owns.
func TestAllocFreeTrainStep(t *testing.T) {
	a, rng := benchAgent()
	a.Cfg.TargetSync = 3
	state := randVec(rng, a.Cfg.StateDim)
	for _, step := range []struct {
		name string
		fn   func()
	}{
		{"TrainStep", func() { a.TrainStep(rng) }},
		{"ActBoltzmann", func() { a.ActBoltzmann(state, 0.5, rng) }},
	} {
		step.fn()
		if avg := testing.AllocsPerRun(50, step.fn); avg != 0 {
			t.Errorf("%s allocates %v/op, want 0", step.name, avg)
		}
	}
}

// TestForwardScratchMatchesFreshNetwork guards against scratch-buffer
// aliasing: repeated Forward calls on the same instance must match a fresh
// clone bit for bit.
func TestForwardScratchMatchesFreshNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{6, 10, 10, 3}, rng)
	xs := make([][]float64, 8)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	c := m.Clone()
	for _, x := range xs {
		got := m.Forward(x)
		want := c.Forward(x)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("scratch Forward diverged: got %v want %v", got, want)
			}
		}
		// Interleave a second input on m only, then recheck the first: the
		// clone's buffers must not be disturbed by m's, and vice versa.
		m.Forward(xs[0])
	}
}
