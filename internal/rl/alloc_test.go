//go:build !race

package rl

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/accnet/acc/internal/snap/codec"
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
// the DDQN targets, backprop, Adam, the target sync — at zero allocations:
// it runs on scratch the agent owns.
func TestAllocFreeTrainStep(t *testing.T) {
	a, rng := benchAgent()
	a.Cfg.TargetSync = 3
	step := func() { a.TrainStep(rng) }
	step()
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Errorf("TrainStep allocates %v/op, want 0", avg)
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

// allocBytes returns how many bytes fn allocates, warm: the second of two
// calls, so one-time runtime set-up is not charged to it.
func allocBytes(fn func()) uint64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAllocNewAgentFootprint pins what an agent costs before it has learnt
// anything: two networks of weights and scratch and the step buffers — no
// replay backing it may never fill, no optimizer tensors a target network
// never touches. The paper's agent is 3 560 parameters (28 KB a network).
func TestAllocNewAgentFootprint(t *testing.T) {
	cfg := DefaultAgentConfig(12, 20)
	rng := rand.New(rand.NewSource(1))
	got := allocBytes(func() { NewAgent(cfg, rng) })
	t.Logf("NewAgent allocates %d bytes", got)
	if got >= 96<<10 {
		t.Fatalf("NewAgent allocates %d bytes, want < 96 KB", got)
	}
}

// TestAllocRestoredAgentSizedByUse: a restored agent holds what its image
// holds. The target network never trained, so its moments were saved as
// zeros and come back unallocated; the evaluation network trained and gets
// its moments, but no gradient buffer, many-sample scratch or bootstrap
// memo until it trains again; the replay backing is as long as what was stored, and the
// whole overlay allocates less than twice the image's size.
func TestAllocRestoredAgentSizedByUse(t *testing.T) {
	a, rng := benchAgent()
	for i := 0; i < 3; i++ {
		a.TrainStep(rng)
	}
	if mom, _ := a.Eval.optim(); !slices.ContainsFunc(mom, func(x float64) bool { return x != 0 }) {
		t.Fatal("the evaluation network to save never trained: the test would prove nothing")
	}
	w := codec.NewWriter()
	a.SaveState(w)
	img := w.Finish()

	var b *Agent
	build := allocBytes(func() { b = NewAgent(a.Cfg, rng) })
	both := allocBytes(func() {
		b = NewAgent(a.Cfg, rng)
		r, err := codec.NewReader(img)
		if err != nil {
			t.Fatal(err)
		}
		if b.RestoreState(r); r.Err() != nil {
			t.Fatal(r.Err())
		}
	})
	t.Logf("image %d bytes, NewAgent %d, NewAgent + RestoreState %d", len(img), build, both)
	if overlay := both - build; overlay > 2*uint64(len(img)) {
		t.Errorf("overlaying a %d-byte image allocates %d bytes, want at most twice the image", len(img), overlay)
	}
	if b.Target.m != nil || b.Target.v != nil || b.Target.grad != nil {
		t.Error("the restored target network has optimizer tensors")
	}
	if b.Eval.m == nil {
		t.Error("the restored evaluation network lost its moments")
	}
	if b.Eval.grad != nil || b.step.lanes != nil || b.Memory.memo != nil {
		t.Error("the restored agent has training scratch or a bootstrap memo before it trains")
	}
	if got, want := cap(b.Memory.buf), a.Memory.Len(); got != want {
		t.Errorf("restored replay backing holds %d transitions for %d stored", got, want)
	}
	b.TrainStep(rng)
	if b.Eval.grad == nil {
		t.Error("the restored evaluation network trained without a gradient buffer")
	}
	if b.Target.grad != nil {
		t.Error("training made a gradient buffer for the target network")
	}
}
