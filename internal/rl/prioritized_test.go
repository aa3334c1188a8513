package rl

import (
	"math/rand"
	"testing"
)

func TestSamplePrioritizedBias(t *testing.T) {
	r := NewReplay(100)
	// One high-reward transition among 99 zero-reward ones.
	for i := 0; i < 99; i++ {
		r.Add(Transition{Action: 0, Reward: 0})
	}
	r.Add(Transition{Action: 1, Reward: 1})
	rng := rand.New(rand.NewSource(1))
	const n = 10000
	hits := 0
	for _, tr := range r.SamplePrioritized(rng, make([]Transition, n), RewardPriority, 1) {
		if tr.Action == 1 {
			hits++
		}
	}
	// With proportional priorities the high-reward item should dominate
	// (~100% minus the epsilon floor), far above the uniform 1%.
	if frac := float64(hits) / n; frac < 0.5 {
		t.Fatalf("high-priority transition sampled %.1f%%, want >>1%%", frac*100)
	}
}

func TestSamplePrioritizedAlphaZeroIsUniform(t *testing.T) {
	r := NewReplay(10)
	for i := 0; i < 10; i++ {
		r.Add(Transition{Action: i, Reward: float64(i)})
	}
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 10)
	const n = 20000
	for _, tr := range r.SamplePrioritized(rng, make([]Transition, n), RewardPriority, 0) {
		counts[tr.Action]++
	}
	for a, c := range counts {
		frac := float64(c) / n
		if frac < 0.07 || frac > 0.13 {
			t.Fatalf("alpha=0 not uniform: action %d sampled %.1f%%", a, frac*100)
		}
	}
}

func TestSamplePrioritizedEdgeCases(t *testing.T) {
	r := NewReplay(4)
	rng := rand.New(rand.NewSource(3))
	if got := r.SamplePrioritized(rng, make([]Transition, 5), RewardPriority, 1); got != nil {
		t.Fatal("empty replay must return nil")
	}
	r.Add(Transition{Reward: -1}) // negative priority clamped
	out := r.SamplePrioritized(rng, make([]Transition, 3), RewardPriority, 1)
	if len(out) != 3 {
		t.Fatalf("got %d samples, want 3", len(out))
	}
}

func TestTrainStepPrioritizedLearns(t *testing.T) {
	cfg := DefaultAgentConfig(2, 2)
	cfg.Hidden = []int{16}
	cfg.Gamma = 0
	rng := rand.New(rand.NewSource(4))
	a := NewAgent(cfg, rng)
	ctx := func(i int) []float64 {
		if i == 0 {
			return []float64{1, 0}
		}
		return []float64{0, 1}
	}
	for step := 0; step < 1500; step++ {
		c := rng.Intn(2)
		act := a.Act(ctx(c), rng)
		rew := 0.0
		if act == c {
			rew = 1
		}
		a.Observe(Transition{State: ctx(c), Action: act, Reward: rew, Next: ctx(rng.Intn(2)), Terminal: true})
		a.TrainStepPrioritized(rng, 0.6)
	}
	for c := 0; c < 2; c++ {
		if Argmax(a.Eval.Forward(ctx(c))) != c {
			t.Fatalf("prioritized training failed to solve the bandit for context %d", c)
		}
	}
}
