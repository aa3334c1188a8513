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
// Each queue keeps a current template index; every Probation intervals it
// evaluates mean reward, then either keeps the current action (if reward
// improved or stayed) or reverts and tries a random neighbour.
type HillClimber struct {
	Net    *netsim.Network
	Switch *netsim.Switch
	Cfg    Config
	// Probation is how many ΔT intervals each trial action is held.
	Probation int

	rng     *rand.Rand
	queues  []*hcQueue
	stopped bool

	Trials  uint64
	Reverts uint64
}

type hcQueue struct {
	port *netsim.Port
	q    *netsim.EgressQueue

	share        float64
	lastTx       uint64
	lastIntegral float64

	action     int     // current (trial) action
	bestAction int     // last accepted action
	bestReward float64 // its mean reward
	accum      float64 // reward accumulator over the probation window
	slots      int
}

// NewHillClimber attaches the baseline tuner to sw.
func NewHillClimber(net *netsim.Network, sw *netsim.Switch, cfg Config, probation int) *HillClimber {
	cfg = cfg.normalize()
	if probation <= 0 {
		probation = 10
	}
	h := &HillClimber{
		Net:       net,
		Switch:    sw,
		Cfg:       cfg,
		Probation: probation,
		rng:       rand.New(rand.NewSource(net.Rng.Int63())),
	}
	for _, p := range sw.Ports {
		sumW := 0
		for _, q := range p.Queues {
			sumW += q.Weight
		}
		for _, q := range p.Queues {
			if !q.ECNEnabled || !cfg.tunesPrio(q.Prio) {
				continue
			}
			share := 1.0
			if sumW > 0 {
				share = float64(q.Weight) / float64(sumW)
			}
			mid := len(cfg.Template) / 2
			hq := &hcQueue{port: p, q: q, share: share, action: mid, bestAction: mid, bestReward: -1}
			q.RED = cfg.Template[mid]
			h.queues = append(h.queues, hq)
		}
	}
	h.schedule()
	return h
}

// Stop halts the loop.
func (h *HillClimber) Stop() { h.stopped = true }

func (h *HillClimber) schedule() {
	h.Net.Q.After(h.Cfg.Period, func() {
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
	txDelta := hq.q.TxBytes - hq.lastTx
	integ := hq.q.ByteTimeIntegral()
	integDelta := integ - hq.lastIntegral
	hq.lastTx = hq.q.TxBytes
	hq.lastIntegral = integ

	window := h.Cfg.Period.Seconds()
	util := clamp01(float64(txDelta) * 8 / (float64(hq.port.Bandwidth) * hq.share * window))
	avgQ := integDelta / window
	hq.accum += Reward(h.Cfg.W1, h.Cfg.W2, util, h.Cfg.Reward(avgQ))
	hq.slots++
	if hq.slots < h.Probation {
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
	if next >= len(h.Cfg.Template) {
		next = len(h.Cfg.Template) - 1
	}
	hq.action = next
	hq.q.RED = h.Cfg.Template[next]
	h.Trials++
}
