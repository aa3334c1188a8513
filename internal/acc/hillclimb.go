package acc

import (
	"math/rand"

	"github.com/accnet/acc/internal/netsim"
)

// HillClimber is a non-learning baseline tuner: the same telemetry and
// actuation interface as the DRL Tuner, but driven by per-queue stochastic
// hill climbing on the measured reward instead of a Q-network. It answers
// the natural question the paper leaves implicit — does ECN tuning need RL,
// or would greedy local search do? — and is benchmarked against ACC in the
// `ablation-hillclimb` experiment.
//
// Each queue keeps a current template index; every probation intervals it
// evaluates mean reward, then either keeps the current action (if reward
// improved or stayed) or reverts and tries a random neighbour. It reads
// DefaultConfig's period, reward and template.
type HillClimber struct {
	Net *netsim.Network

	cfg     Config
	rng     *rand.Rand
	queues  []*hcQueue
	stopped bool

	Trials  uint64
	Reverts uint64
}

// probation is how many ΔT intervals each trial action is held.
const probation = 10

type hcQueue struct {
	window

	action     int     // current (trial) action
	bestAction int     // last accepted action
	bestReward float64 // its mean reward
	accum      float64 // reward accumulator over the probation window
	slots      int
}

// NewHillClimber attaches the baseline tuner to sw.
func NewHillClimber(net *netsim.Network, sw *netsim.Switch) *HillClimber {
	h := &HillClimber{
		Net: net,
		cfg: DefaultConfig(),
		rng: rand.New(rand.NewSource(net.Rng.Int63())),
	}
	mid := len(h.cfg.Template) / 2
	eachWindow(sw, nil, true, func(w window) {
		w.q.RED = h.cfg.Template[mid]
		h.queues = append(h.queues, &hcQueue{window: w, action: mid, bestAction: mid, bestReward: -1})
	})
	h.schedule()
	return h
}

// Stop halts the loop.
func (h *HillClimber) Stop() { h.stopped = true }

func (h *HillClimber) schedule() {
	h.Net.Q.After(h.cfg.Period, func() {
		if h.stopped {
			return
		}
		for _, q := range h.queues {
			h.tick(q)
		}
		h.schedule()
	})
}

func (h *HillClimber) tick(hq *hcQueue) {
	util, _, avgQ, _ := hq.sample(h.cfg.Period)
	hq.accum += Reward(h.cfg.W1, h.cfg.W2, util, h.cfg.Reward(avgQ))
	hq.slots++
	if hq.slots < probation {
		return
	}
	mean := hq.accum / float64(hq.slots)
	hq.accum, hq.slots = 0, 0

	if mean >= hq.bestReward {
		// Accept the trial; it becomes the incumbent.
		hq.bestAction = hq.action
		hq.bestReward = mean
	} else {
		// Revert to the incumbent and decay its score so the climber keeps
		// re-validating under nonstationary traffic.
		hq.action = hq.bestAction
		hq.bestReward = 0.9*hq.bestReward + 0.1*mean
		h.Reverts++
	}
	// Propose a neighbour: ±1 or ±2 template steps.
	step := 1 + h.rng.Intn(2)
	if h.rng.Intn(2) == 0 {
		step = -step
	}
	next := hq.bestAction + step
	if next < 0 {
		next = 0
	}
	if next >= len(h.cfg.Template) {
		next = len(h.cfg.Template) - 1
	}
	hq.action = next
	hq.q.RED = h.cfg.Template[next]
	h.Trials++
}
