package rl

import (
	"math"
	"math/rand"
	"slices"
	"sort"
)

// SamplePrioritized fills dst with transitions drawn with probability
// proportional to priority(t)^alpha — the §4.3 online-training refinement
// where "actions resulting large reward will be prioritised" — one
// rng.Float64 per slot in slot order, and returns it; nil when the memory
// is empty. alpha=0 degenerates to uniform sampling; larger alpha sharpens
// the preference.
func (r *Replay) SamplePrioritized(rng *rand.Rand, dst []Transition, priority func(Transition) float64, alpha float64) []Transition {
	if len(r.buf) == 0 || len(dst) == 0 {
		return nil
	}
	total := r.weigh(priority, alpha)
	for i := range dst {
		dst[i] = r.buf[r.pick(rng.Float64()*total)]
	}
	return dst
}

// weigh builds the prefix sums of priority^alpha over the stored
// transitions, on a table that grows with the memory, and returns their
// total.
func (r *Replay) weigh(priority func(Transition) float64, alpha float64) float64 {
	prefix := slices.Grow(r.prefix[:0], len(r.buf)+1)[:len(r.buf)+1]
	r.prefix = prefix
	prefix[0] = 0
	for i, t := range r.buf {
		p := priority(t)
		if p < 0 || math.IsNaN(p) {
			p = 0
		}
		prefix[i+1] = prefix[i] + math.Pow(p+1e-9, alpha)
	}
	return prefix[len(r.buf)]
}

// pick returns the slot whose share of the prefix sums weigh built holds
// u.
func (r *Replay) pick(u float64) int {
	return min(sort.SearchFloat64s(r.prefix[1:len(r.buf)+1], u), len(r.buf)-1)
}

// RewardPriority is the paper's §4.3 heuristic: a transition's priority is
// its immediate reward (shifted to be positive over the [0,1] reward range).
func RewardPriority(t Transition) float64 { return t.Reward }

// TrainStepPrioritized is TrainStep with reward-prioritized minibatch
// sampling. Half of each batch is drawn uniformly so the agent still
// trains on low-reward (cautionary) experience — pure reward priority
// would never show it the consequences of bad actions. It returns the
// batch loss, or NaN when the memory has fewer transitions than a batch.
func (a *Agent) TrainStepPrioritized(rng *rand.Rand, alpha float64) float64 {
	if a.Memory.Len() < a.Cfg.BatchSize {
		return math.NaN()
	}
	slots := a.step.slots
	n := a.Cfg.BatchSize - a.Cfg.BatchSize/2
	total := a.Memory.weigh(RewardPriority, alpha)
	for i := range slots[:n] {
		slots[i] = a.Memory.pick(rng.Float64() * total)
	}
	a.Memory.sampleSlots(rng, slots[n:])
	return a.learn()
}
