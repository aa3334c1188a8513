package rl

import (
	"math"
	"math/rand"
)

// ActBoltzmann selects an action by softmax (Boltzmann) exploration over
// the Q-values at the given temperature: an alternative to ε-greedy that
// explores *plausible* actions more than clearly bad ones — useful when a
// single random ECN template can cost milliseconds of queueing (the
// unstable-exploration concern of §4.3). Temperature → 0 approaches
// greedy; large temperatures approach uniform.
func (a *Agent) ActBoltzmann(state []float64, temperature float64, rng *rand.Rand) int {
	q := a.Eval.Forward(state)
	if temperature <= 0 {
		return Argmax(q)
	}
	// Softmax with max-subtraction for numerical stability.
	maxQ := q[Argmax(q)]
	var sum float64
	probs := a.probs[:len(q)]
	for i, v := range q {
		p := math.Exp((v - maxQ) / temperature)
		probs[i] = p
		sum += p
	}
	u := rng.Float64() * sum
	var acc float64
	for i, p := range probs {
		acc += p
		if u <= acc {
			return i
		}
	}
	return len(q) - 1
}
