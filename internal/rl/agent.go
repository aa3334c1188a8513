package rl

import (
	"math"
	"math/rand"
)

// Transition is one experience tuple {S_t, a_t, r_t, S_t+1} (Algorithm 1,
// line 6). Terminal is true when S_t+1 ends an episode (no bootstrap).
type Transition struct {
	State    []float64 `json:"s"`
	Action   int       `json:"a"`
	Reward   float64   `json:"r"`
	Next     []float64 `json:"s2"`
	Terminal bool      `json:"t,omitempty"`
}

// Replay is a fixed-capacity ring-buffer experience memory sampled
// uniformly, as in DQN. Its backing grows with what is stored, by append,
// up to the capacity: a memory that never fills is never paid for in full.
type Replay struct {
	buf  []Transition
	cap  int
	next int
	full bool

	//acclint:ignore snapcover scratch: SamplePrioritized rebuilds it from buf before every read
	prefix []float64
}

// NewReplay creates a replay memory holding up to capacity transitions.
func NewReplay(capacity int) *Replay {
	if capacity <= 0 {
		capacity = 1
	}
	return &Replay{cap: capacity}
}

// Add stores one transition, evicting the oldest when full.
func (r *Replay) Add(t Transition) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, t)
		return
	}
	r.full = true
	r.buf[r.next] = t
	r.next = (r.next + 1) % r.cap
}

// Len returns the number of stored transitions.
func (r *Replay) Len() int { return len(r.buf) }

// Cap returns how many transitions the memory holds when full.
func (r *Replay) Cap() int { return r.cap }

// Sample fills dst with transitions drawn uniformly with replacement, one
// rng.Intn per slot in slot order, and returns it; nil when the memory is
// empty.
func (r *Replay) Sample(rng *rand.Rand, dst []Transition) []Transition {
	if len(r.buf) == 0 {
		return nil
	}
	for i := range dst {
		dst[i] = r.buf[rng.Intn(len(r.buf))]
	}
	return dst
}

// At returns the i-th stored transition (test/exchange use).
func (r *Replay) At(i int) Transition { return r.buf[i] }

// AgentConfig parameterizes a DQN/DDQN agent.
type AgentConfig struct {
	StateDim   int
	NumActions int
	Hidden     []int // hidden layer widths; paper §6 uses {20,40,40}

	Gamma      float64 // discount factor
	LR         float64 // Adam learning rate
	BatchSize  int
	ReplayCap  int
	TargetSync int // train steps between target-network syncs (Alg.1 line 9)

	// ε-greedy exploration with exponential decay (§4.3: "fast exponential
	// decay of the exploration probability online").
	EpsStart float64
	EpsEnd   float64
	EpsDecay float64 // per-act multiplicative decay toward EpsEnd

	DoubleDQN bool // decouple selection/evaluation (§3.4, equation 3)
}

// DefaultAgentConfig returns the paper-shaped configuration for a given
// state dimension and action-template size.
func DefaultAgentConfig(stateDim, numActions int) AgentConfig {
	return AgentConfig{
		StateDim:   stateDim,
		NumActions: numActions,
		Hidden:     []int{20, 40, 40},
		Gamma:      0.95,
		LR:         1e-3,
		BatchSize:  32,
		ReplayCap:  4096,
		TargetSync: 100,
		EpsStart:   1.0,
		EpsEnd:     0.02,
		EpsDecay:   0.999,
		DoubleDQN:  true,
	}
}

// Sizes returns the layer widths of the agent's networks, input first.
func (c AgentConfig) Sizes() []int {
	return append(append([]int{c.StateDim}, c.Hidden...), c.NumActions)
}

// Agent is a (Double-)DQN learner.
type Agent struct {
	//acclint:ignore snapcover construction config; restore overlays onto an agent built with the same AgentConfig
	Cfg    AgentConfig
	Eval   *MLP // θ: evaluation network
	Target *MLP // θ': target network
	Memory *Replay

	eps        float64
	trainSteps int

	// Scratch of TrainStep (the drawn minibatch and its regression targets),
	// sized from Cfg by NewAgent. It lives here and not on
	// the networks because a trained Eval is kept long after its agent.
	//acclint:ignore snapcover scratch: overwritten from its start by every TrainStep before it is read
	batch []Transition
	//acclint:ignore snapcover scratch: overwritten from its start by every TrainStep before it is read
	samples []Sample
	// The four-sample scratch of learn, made by its first call where the
	// CPU runs the AVX2 kernels and nil elsewhere.
	//acclint:ignore snapcover scratch: every pass overwrites it before it is read
	lanes *lanes
}

// NewAgent builds an agent with freshly initialized networks.
func NewAgent(cfg AgentConfig, rng *rand.Rand) *Agent {
	eval := NewMLP(cfg.Sizes(), rng)
	return &Agent{
		Cfg:     cfg,
		Eval:    eval,
		Target:  eval.Clone(),
		Memory:  NewReplay(cfg.ReplayCap),
		eps:     cfg.EpsStart,
		batch:   make([]Transition, cfg.BatchSize),
		samples: make([]Sample, cfg.BatchSize),
	}
}

// Epsilon returns the current exploration probability.
func (a *Agent) Epsilon() float64 { return a.eps }

// SetEpsilon overrides the exploration probability (used when loading a
// pre-trained model for online operation).
func (a *Agent) SetEpsilon(e float64) { a.eps = e }

// Act selects an action ε-greedily and decays ε.
func (a *Agent) Act(state []float64, rng *rand.Rand) int {
	defer a.decay()
	if rng.Float64() < a.eps {
		return rng.Intn(a.Cfg.NumActions)
	}
	return Argmax(a.Eval.Forward(state))
}

func (a *Agent) decay() {
	if a.eps > a.Cfg.EpsEnd {
		a.eps = a.Cfg.EpsEnd + (a.eps-a.Cfg.EpsEnd)*a.Cfg.EpsDecay
		if a.eps < a.Cfg.EpsEnd {
			a.eps = a.Cfg.EpsEnd
		}
	}
}

// Observe stores a transition in the replay memory.
func (a *Agent) Observe(t Transition) { a.Memory.Add(t) }

// TrainStep samples one minibatch and performs an optimization step
// (Algorithm 1, lines 7–9). It returns the batch loss, or NaN when the
// memory has fewer transitions than a batch.
func (a *Agent) TrainStep(rng *rand.Rand) float64 {
	if a.Memory.Len() < a.Cfg.BatchSize {
		return math.NaN()
	}
	return a.learn(a.Memory.Sample(rng, a.batch))
}

// learn fits Eval to the (Double-)DQN targets of batch with one optimizer
// step, syncs the target network on schedule and returns the batch loss.
// Where the CPU runs the AVX2 kernels, the bootstrap passes of the
// non-terminal transitions and the training passes go four samples at a
// time, the remainder one by one.
func (a *Agent) learn(batch []Transition) float64 {
	if a.lanes == nil && useAVX2 {
		a.lanes = newLanes(a.Eval.Sizes)
	}
	samples := a.samples[:len(batch)]
	var four [4]int // non-terminal transitions waiting for a four-sample pass
	k := 0
	for i := range batch {
		t := &batch[i]
		samples[i] = Sample{X: t.State, Action: t.Action, Target: t.Reward}
		if t.Terminal {
			continue
		}
		if a.lanes == nil {
			samples[i].Target += a.Cfg.Gamma * a.bootstrap(t.Next)
			continue
		}
		four[k] = i
		k++
		if k == len(four) {
			a.bootstrap4(batch, samples, four)
			k = 0
		}
	}
	for _, i := range four[:k] {
		samples[i].Target += a.Cfg.Gamma * a.bootstrap(batch[i].Next)
	}
	loss := a.Eval.trainBatch(samples, a.Cfg.LR, a.lanes)
	a.trainSteps++
	if a.Cfg.TargetSync > 0 && a.trainSteps%a.Cfg.TargetSync == 0 {
		a.Target.CopyFrom(a.Eval)
	}
	return loss
}

// bootstrap returns the value the target bootstraps from next: the target
// network's Q of the action the evaluation network selects (DDQN), or the
// target network's largest Q.
func (a *Agent) bootstrap(next []float64) float64 {
	if a.Cfg.DoubleDQN {
		sel := Argmax(a.Eval.Forward(next))
		return a.Target.Forward(next)[sel]
	}
	tq := a.Target.Forward(next)
	return tq[Argmax(tq)]
}

// bootstrap4 adds γ times bootstrap of their Next to the targets of the
// four transitions of batch at idx, in one four-sample pass per network.
func (a *Agent) bootstrap4(batch []Transition, samples []Sample, idx [4]int) {
	ln := a.lanes
	ln.load(batch[idx[0]].Next, batch[idx[1]].Next, batch[idx[2]].Next, batch[idx[3]].Next)
	selector := a.Target
	if a.Cfg.DoubleDQN {
		selector = a.Eval
	}
	q := selector.forwardLanes(ln)
	var sel [4]int
	for s := range sel {
		sel[s] = argmaxLane(q, s)
	}
	if selector != a.Target {
		q = a.Target.forwardLanes(ln)
	}
	for s, i := range idx {
		samples[i].Target += a.Cfg.Gamma * q[4*sel[s]+s]
	}
}

// TrainSteps returns how many optimization steps have run.
func (a *Agent) TrainSteps() int { return a.trainSteps }
