package rl

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/accnet/acc/internal/snap/codec"
)

// TestBootstrapMemo trains an agent that keeps its bootstrap memo beside
// one whose memo is dropped before every step, on every kernel path the
// host has, and holds them bit-identical — losses, both networks, the rng
// streams — through target syncs, a ring that wraps over sampled slots,
// transitions arriving from another agent's memory (the global replay
// exchange's Add), prioritized steps, DQN as well as DDQN targets, and a
// restore in the middle of a sync window, after which the restored agent
// carries on without a memo.
func TestBootstrapMemo(t *testing.T) {
	for _, k := range allPaths() {
		for _, double := range []bool{true, false} {
			name := fmt.Sprintf("%s/ddqn=%v", pathNames[k], double)
			onPath(k, func() { checkBootstrapMemo(t, name, double) })
		}
	}
}

func checkBootstrapMemo(t *testing.T, name string, double bool) {
	cfg := DefaultAgentConfig(12, 20)
	cfg.DoubleDQN = double
	cfg.BatchSize = 19 // leaves a part-filled group on every path
	cfg.ReplayCap = 48
	cfg.TargetSync = 7
	src := rand.New(rand.NewSource(5))
	a, b := NewAgent(cfg, rand.New(rand.NewSource(9))), NewAgent(cfg, rand.New(rand.NewSource(9)))
	other := NewReplay(16)
	transition := func() Transition {
		return Transition{State: randVec(src, 12), Action: src.Intn(20), Reward: src.Float64(), Next: randVec(src, 12), Terminal: src.Intn(6) == 0}
	}
	for i := 0; i < cfg.ReplayCap; i++ {
		tr := transition()
		a.Observe(tr)
		b.Observe(tr)
		other.Add(transition())
	}
	rngA, rngB := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	hits := 0
	for step := 0; step < 60; step++ {
		switch {
		case step%5 == 4: // the ring wraps over slots the memo holds
			tr := transition()
			a.Observe(tr)
			b.Observe(tr)
		case step%9 == 8: // an exchange
			tr := other.At(step % other.Len())
			a.Observe(tr)
			b.Observe(tr)
		case step == 31: // a restore, mid-window
			w := codec.NewWriter()
			a.SaveState(w)
			r, err := codec.NewReader(w.Finish())
			if err != nil {
				t.Fatal(err)
			}
			a = NewAgent(cfg, rand.New(rand.NewSource(1)))
			if a.RestoreState(r); r.Err() != nil {
				t.Fatal(r.Err())
			}
			if a.Memory.memo != nil {
				t.Fatalf("%s: the restored agent has a bootstrap memo", name)
			}
		}
		hits += memoHits(a)
		b.Memory.memo = nil
		var la, lb float64
		if step%3 == 2 {
			la, lb = a.TrainStepPrioritized(rngA, 0.6), b.TrainStepPrioritized(rngB, 0.6)
		} else {
			la, lb = a.TrainStep(rngA), b.TrainStep(rngB)
		}
		sameBits(t, []float64{la}, []float64{lb}, name, " loss at step ", step)
	}
	sameBits(t, a.Eval.Params(), b.Eval.Params(), name, " eval")
	sameBits(t, a.Target.Params(), b.Target.Params(), name, " target")
	if rngA.Int63() != rngB.Int63() {
		t.Fatalf("%s: rng streams diverged", name)
	}
	if hits == 0 {
		t.Fatalf("%s: no memo entry was ever valid: the test proves nothing", name)
	}
}

// memoHits counts a's memo entries valid for its target network as it
// stands: the ones a step could reuse.
func memoHits(a *Agent) int {
	n := 0
	for _, e := range a.Memory.memo {
		if e.sel != 0 && e.version == a.Target.version {
			n++
		}
	}
	return n
}
