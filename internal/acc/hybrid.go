package acc

import (
	"math/rand"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
)

// Hybrid implements the design the paper's §6 discussion proposes as
// potentially optimal: "the RL model inference and ECN update is
// decentralized for quickest response, while online training / RL model
// update is done by a centralized controller."
//
// Each switch keeps a local agent whose inference path is untouched (same
// microsecond actuation as D-ACC), but online optimization steps run only
// in the controller, over the union of all switches' experience; refreshed
// weights are pushed back to every switch after a model-sync delay that
// models the control-channel round trip.
type Hybrid struct {
	Net    *netsim.Network
	Tuners []*Tuner
	// Trainer is the controller-side agent that owns the training loop.
	Trainer *rl.Agent

	rng       *rand.Rand
	stopped   bool
	Pushes    uint64 // model updates pushed to switches
	TrainRuns uint64
}

// The controller loop, scaled to simulation timescales.
const (
	// collectPeriod is how often the controller pulls experience from the
	// switches and trains.
	collectPeriod = 2 * simtime.Millisecond
	// collectSamples is how many transitions each switch contributes per
	// collection.
	collectSamples = 128
	// trainSteps is the number of minibatch steps per collection.
	trainSteps = 64
	// pushDelay models the latency of distributing refreshed weights.
	pushDelay = 2 * simtime.Millisecond
)

// NewHybrid deploys hybrid ACC on the switches: DefaultConfig tuners that
// only infer, and a controller that trains. A non-nil model initializes
// both the controller and every switch agent.
func NewHybrid(net *netsim.Network, switches []*netsim.Switch, model *rl.MLP) *Hybrid {
	tc := DefaultConfig()
	tc.TrainOnline = false
	ac := tc.AgentConfig()
	h := &Hybrid{
		Net: net,
		rng: rand.New(rand.NewSource(net.Rng.Int63())),
	}
	h.Trainer = rl.NewAgent(ac, net.Rng)
	if model != nil {
		h.Trainer.Eval.CopyFrom(model)
		h.Trainer.Target.CopyFrom(model)
	}
	for _, sw := range switches {
		agent := rl.NewAgent(ac, net.Rng)
		agent.Eval.CopyFrom(h.Trainer.Eval)
		agent.Target.CopyFrom(h.Trainer.Eval)
		h.Tuners = append(h.Tuners, NewTuner(net, sw, agent, tc))
	}
	h.schedule()
	return h
}

// SetEpsilon sets the exploration probability on every switch agent.
func (h *Hybrid) SetEpsilon(e float64) {
	for _, t := range h.Tuners {
		t.Agent.SetEpsilon(e)
	}
}

// Stop halts tuners and the controller loop.
func (h *Hybrid) Stop() {
	h.stopped = true
	for _, t := range h.Tuners {
		t.Stop()
	}
}

func (h *Hybrid) schedule() {
	h.Net.Q.After(collectPeriod, func() {
		if h.stopped {
			return
		}
		h.collectAndTrain()
		h.schedule()
	})
}

// collectAndTrain pulls experience from every switch, runs the training
// budget at the controller, and pushes refreshed weights back after the
// control-channel delay.
func (h *Hybrid) collectAndTrain() {
	buf := make([]rl.Transition, collectSamples)
	for _, t := range h.Tuners {
		for _, tr := range t.Agent.Memory.Sample(h.rng, buf[:min(len(buf), t.Agent.Memory.Len())]) {
			h.Trainer.Observe(tr)
		}
	}
	for i := 0; i < trainSteps; i++ {
		h.Trainer.TrainStep(h.rng)
		h.TrainRuns++
	}
	// Snapshot the refreshed weights and distribute them.
	snapshot := h.Trainer.Eval.Clone()
	h.Net.Q.After(pushDelay, func() {
		if h.stopped {
			return
		}
		h.Pushes++
		for _, t := range h.Tuners {
			t.Agent.Eval.CopyFrom(snapshot)
			t.Agent.Target.CopyFrom(snapshot)
		}
	})
}
