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
	// memo[i] is the bootstrap value the training agent last computed for
	// buf[i] (Agent.bootstrap), kept beside its slot and cleared when the
	// slot is written. It grows to buf's length when the agent learns; a
	// restore drops it, and nothing exchanges or saves it.
	memo []memoEntry
}

// memoEntry is one slot's bootstrap memo: the target network's Q of the
// slot's Next at action sel-1, computed at the target's version. sel 0 is
// no entry.
type memoEntry struct {
	q       float64
	sel     int32
	version uint32
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
	if r.next < len(r.memo) {
		r.memo[r.next] = memoEntry{}
	}
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

// sampleSlots is Sample drawing slot numbers: the same draws, into slots.
func (r *Replay) sampleSlots(rng *rand.Rand, slots []int) {
	for i := range slots {
		slots[i] = rng.Intn(len(r.buf))
	}
}

// bootstrapMemo returns memo grown to one entry per stored transition.
func (r *Replay) bootstrapMemo() []memoEntry {
	if n := len(r.buf) - len(r.memo); n > 0 {
		r.memo = append(r.memo, make([]memoEntry, n)...)
	}
	return r.memo
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

	// The scratch of TrainStep, sized from Cfg. It lives here and not on
	// the networks because a trained Eval is kept long after its agent.
	//acclint:ignore snapcover scratch: every TrainStep overwrites what it reads of it
	step stepScratch
}

// stepScratch is what one train step works on. slots, samples, memo, sel
// and q are per minibatch entry; todo and miss list entries waiting for a
// pass.
type stepScratch struct {
	slots   []int       // the replay slots drawn
	samples []Sample    // their regression targets
	memo    []memoEntry // their memo entries, as the step began
	sel     []int       // the action each bootstrap reads
	q       []float64   // the target network's Q there
	todo    []int
	miss    []int
	// lanes is the many-sample scratch, made by the first learn on the
	// AVX2 and AVX-512 paths for their width, nil on the Go path.
	lanes *lanes
}

// NewAgent builds an agent with freshly initialized networks.
func NewAgent(cfg AgentConfig, rng *rand.Rand) *Agent {
	eval := NewMLP(cfg.Sizes(), rng)
	n := cfg.BatchSize
	ints := make([]int, 4*n)
	return &Agent{
		Cfg:    cfg,
		Eval:   eval,
		Target: eval.Clone(),
		Memory: NewReplay(cfg.ReplayCap),
		eps:    cfg.EpsStart,
		step: stepScratch{
			slots:   ints[:n:n],
			sel:     ints[n : 2*n : 2*n],
			todo:    ints[2*n : 3*n : 3*n],
			miss:    ints[3*n:],
			samples: make([]Sample, n),
			memo:    make([]memoEntry, n),
			q:       make([]float64, n),
		},
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
	a.Memory.sampleSlots(rng, a.step.slots)
	return a.learn()
}

// learn fits Eval to the (Double-)DQN targets of the replay slots drawn
// into step.slots with one optimizer step, syncs the target network on
// schedule and returns the batch loss.
func (a *Agent) learn() float64 {
	st := &a.step
	if st.lanes == nil && simd != goKernels {
		st.lanes = newLanes(a.Eval.Sizes, simd.width())
	}
	// The slots' memo entries are read here, ahead of every pass, so that
	// their cache misses overlap.
	buf, memo := a.Memory.buf, a.Memory.bootstrapMemo()
	todo := st.todo[:0]
	for i, slot := range st.slots {
		t := &buf[slot]
		st.samples[i] = Sample{X: t.State, Action: t.Action, Target: t.Reward}
		st.memo[i] = memo[slot]
		if !t.Terminal {
			todo = append(todo, i)
		}
	}
	a.bootstrap(todo)
	loss := a.Eval.trainBatch(st.samples, a.Cfg.LR, st.lanes)
	a.trainSteps++
	if a.Cfg.TargetSync > 0 && a.trainSteps%a.Cfg.TargetSync == 0 {
		a.Target.CopyFrom(a.Eval)
	}
	return loss
}

// bootstrap adds γ times the bootstrap value of their Next to the targets
// of the minibatch entries at todo: the target network's Q of the action
// the evaluation network selects (DDQN), or the target network's largest
// Q. A slot's memo entry stands for the target network's pass while the
// target is at the entry's version and, under DDQN, the evaluation
// network still selects the entry's action; the target runs only for the
// rest, and their entries are rewritten.
func (a *Agent) bootstrap(todo []int) {
	st, version := &a.step, a.Target.version
	double := a.Cfg.DoubleDQN
	if double {
		a.passes(a.Eval, todo, false)
	}
	miss := st.miss[:0]
	for _, i := range todo {
		e := st.memo[i]
		if e.sel != 0 && e.version == version && (!double || int(e.sel-1) == st.sel[i]) {
			st.sel[i], st.q[i] = int(e.sel-1), e.q
			continue
		}
		miss = append(miss, i)
	}
	if double {
		a.values(miss)
	} else {
		a.passes(a.Target, miss, true)
	}
	for _, i := range miss {
		a.Memory.memo[st.slots[i]] = memoEntry{q: st.q[i], sel: int32(st.sel[i] + 1), version: version}
	}
	for _, i := range todo {
		st.samples[i].Target += a.Cfg.Gamma * st.q[i]
	}
}

// next returns the Next of minibatch entry i.
func (a *Agent) next(i int) []float64 { return a.Memory.buf[a.step.slots[i]].Next }

// passes runs m on the Next of the minibatch entries at idx, full output
// layer, and sets each entry's sel to the action of its largest Q and, with
// value, its q to that Q.
func (a *Agent) passes(m *MLP, idx []int, value bool) {
	st, ln := &a.step, a.step.lanes
	if ln == nil {
		for _, i := range idx {
			out := m.Forward(a.next(i))
			st.sel[i] = Argmax(out)
			if value {
				st.q[i] = out[st.sel[i]]
			}
		}
		return
	}
	for g := 0; g < len(idx); g += ln.w {
		group := idx[g:min(g+ln.w, len(idx))]
		a.loadNext(group)
		out := m.forwardLanes(ln)
		ln.argmaxes(out)
		for s, i := range group {
			st.sel[i] = ln.best[s]
			if value {
				st.q[i] = out[ln.w*st.sel[i]+s]
			}
		}
	}
}

// values sets the q of the minibatch entries at idx to the target
// network's Q of their Next at their sel.
func (a *Agent) values(idx []int) {
	st, ln := &a.step, a.step.lanes
	if ln == nil {
		for _, i := range idx {
			st.q[i] = a.Target.Forward(a.next(i))[st.sel[i]]
		}
		return
	}
	for g := 0; g < len(idx); g += ln.w {
		group := idx[g:min(g+ln.w, len(idx))]
		a.loadNext(group)
		for s := range ln.rows {
			ln.rows[s] = st.sel[group[min(s, len(group)-1)]]
		}
		q := a.Target.rowLanes(ln)
		for s, i := range group {
			st.q[i] = q[s]
		}
	}
}

// loadNext loads the Next of the minibatch entries of group into the
// lanes, the lanes past the group repeating its last entry's.
func (a *Agent) loadNext(group []int) {
	ln := a.step.lanes
	for s := range ln.w {
		ln.load(s, a.next(group[min(s, len(group)-1)]))
	}
}

// TrainSteps returns how many optimization steps have run.
func (a *Agent) TrainSteps() int { return a.trainSteps }
