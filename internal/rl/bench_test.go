package rl

import (
	"math/rand"
	"testing"
)

// benchAgent is the default ACC agent (12-20-40-40-20, batch 32) with a
// full-enough replay memory of distinct random transitions.
func benchAgent() (*Agent, *rand.Rand) {
	rng := rand.New(rand.NewSource(1))
	a := NewAgent(DefaultAgentConfig(12, 20), rng)
	for i := 0; i < 1024; i++ {
		a.Observe(Transition{
			State:  randVec(rng, 12),
			Action: rng.Intn(20),
			Reward: rng.Float64(),
			Next:   randVec(rng, 12),
		})
	}
	return a, rng
}

var benchSink float64

// BenchmarkForward times one inference — what every ΔT tuner step pays.
func BenchmarkForward(b *testing.B) {
	a, rng := benchAgent()
	x := randVec(rng, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += a.Eval.Forward(x)[0]
	}
}

// BenchmarkTrainStep times one DDQN minibatch step on each kernel path
// the host has: 32 draws, the bootstrap passes the memo does not save,
// 32 traced forwards and backward passes, one Adam step.
func BenchmarkTrainStep(b *testing.B) {
	for _, k := range allPaths() {
		b.Run(pathNames[k], func(b *testing.B) {
			onPath(k, func() {
				a, rng := benchAgent()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink += a.TrainStep(rng)
				}
			})
		})
	}
}
