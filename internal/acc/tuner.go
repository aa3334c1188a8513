package acc

import (
	"math"
	"math/rand"

	"github.com/accnet/acc/internal/eventq"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
)

// FeaturesPerSlot is the per-interval feature vector of §3.3/§4.1:
// QS_t = (qlen, txRate, txRate(m), ECN(c)), each normalized.
const FeaturesPerSlot = 4

// Observation is one ΔT collector sample for a monitored queue: the
// normalized feature slot plus the raw reward ingredients.
type Observation struct {
	Slot []float64 // FeaturesPerSlot normalized features
	Util float64   // utilization vs the class's DWRR share, for T(R)
	AvgQ float64   // average queue bytes over the interval, for D(L)
}

// TelemetryFault perturbs the collector→agent path of a tuner, modelling
// the switch-CPU overload the paper guards against in §4.2/§4.3: under
// load the on-switch collector may deliver stale counters or miss
// monitoring windows entirely. The robustness experiments implement it
// (internal/exp/robust.go); a nil fault is the healthy path.
type TelemetryFault interface {
	// Sample receives the freshly measured observation for monitored queue
	// index q and returns the observation actually delivered to the agent.
	// ok=false means the window's sample was lost: the tuner skips
	// inference and learning for that queue this tick.
	Sample(now simtime.Time, q int, obs Observation) (Observation, bool)
}

// Config parameterizes one per-switch tuner.
type Config struct {
	// Period is ΔT, the monitoring/action interval — one order of magnitude
	// above the datacenter RTT (§3.3).
	Period simtime.Duration
	// HistoryK is the number of past monitoring slots in the state (§3.3
	// Markov property; k=3 suffices).
	HistoryK int

	// Reward weights ω1 (utilization) and ω2 (queue delay); ω1+ω2=1.
	W1, W2 float64
	// Reward maps average queue length to D(L); StepReward is the paper's.
	Reward RewardFunc

	// Template is the ECN configuration template (action space).
	Template []red.Config

	// TrainOnline runs a DDQN optimization step each interval (§4.3).
	TrainOnline bool
	// TrainEvery trains on every N-th tick (1 = every tick).
	TrainEvery int
	// PrioritizedAlpha > 0 enables the §4.3 online refinement where
	// high-reward experiences are prioritised during replay sampling;
	// 0 keeps uniform sampling.
	PrioritizedAlpha float64

	// BusyIdle enables the §4.2 optimization: a queue under Kmin whose
	// reward has not changed for idleSlots consecutive slots skips
	// inference until it grows past Kmin.
	BusyIdle bool

	// RecordTrace keeps a time series of applied Kmin per queue (Figure 15).
	RecordTrace bool

	// Prios restricts tuning to the listed traffic classes (§3.2: the
	// queues assigned to RDMA traffic apply automatic ECN tuning). Nil
	// tunes every ECN-enabled queue.
	Prios []int

	// Agent overrides the default rl.AgentConfig (zero value = defaults).
	Agent rl.AgentConfig
}

// DefaultConfig returns the paper-recommended settings: ΔT=100µs (an order
// of magnitude above the ~10µs RTT), k=3, ω1=0.7/ω2=0.3, step reward, the
// 20-entry template, online training enabled.
func DefaultConfig() Config {
	return Config{
		Period:      100 * simtime.Microsecond,
		HistoryK:    3,
		W1:          0.7,
		W2:          0.3,
		Reward:      StepReward,
		Template:    DefaultTemplate(),
		TrainOnline: true,
		TrainEvery:  1,
		BusyIdle:    true,
	}
}

// idleSlots is how many slots of unchanged reward park a queue under Kmin
// (§4.2).
const idleSlots = 3

// StateDim returns the agent input dimension for the config.
func (c Config) StateDim() int { return FeaturesPerSlot * c.HistoryK }

// AgentConfig returns the agent the config deploys: Agent when set,
// otherwise rl's defaults for the config's state and action template.
func (c Config) AgentConfig() rl.AgentConfig {
	if c.Agent.StateDim != 0 {
		return c.Agent
	}
	return rl.DefaultAgentConfig(c.StateDim(), len(c.Template))
}

// queueState is the tuner's bookkeeping for one monitored egress queue.
type queueState struct {
	window

	hist       [][]float64
	prevState  []float64
	prevAction int
	action     int

	lastReward float64
	sameReward int
	idle       bool

	// Trace of applied thresholds (Figure 15) when enabled.
	KminTrace   stats.Series
	RewardTrace stats.Series
}

// Tuner is the per-switch ACC module (Figure 5): collector → data processor
// → DRL agent → configurator, on one ΔT loop.
type Tuner struct {
	//acclint:ignore snapcover construction wiring: NewTuner on the rebuilt Network
	Net *netsim.Network
	//acclint:ignore snapcover construction wiring: restore rebuilds the tuner on the same switch; dynamic state lives in rngSrc and queues
	Switch *netsim.Switch
	//acclint:ignore snapcover visited by its owner (System.State), which walks every agent ahead of the tuners
	Agent *rl.Agent
	Cfg   Config

	//acclint:ignore snapcover wrapper over rngSrc; the saved draw count fast-forwards the source, reproducing the stream
	rng    *rand.Rand
	rngSrc *netsim.CountedSource
	queues []*queueState
	ticks  int

	// tickEv/tickFn are the ΔT loop's reusable timer handle and pre-bound
	// callback: each reschedule reuses the handle (no per-tick closure
	// allocation) and snapshots record/re-arm its (at, seq) slot.
	tickEv *eventq.Event
	tickFn func()

	// Counters mirroring the §4.2 CPU-saving discussion.
	Inferences uint64
	Skipped    uint64
	TrainRuns  uint64
	// TelemetryDrops counts monitoring windows lost to an injected
	// telemetry fault (collector overload).
	TelemetryDrops uint64

	//acclint:ignore snapcover fault-scenario wiring re-installed by Build from the Scenario; its dynamic effect is the saved TelemetryDrops
	fault   TelemetryFault
	stopped bool
}

// NewTuner attaches a tuner to every ECN-enabled egress queue of sw and
// starts its ΔT loop. A nil agent creates a fresh one from cfg.
func NewTuner(net *netsim.Network, sw *netsim.Switch, agent *rl.Agent, cfg Config) *Tuner {
	if agent == nil {
		agent = rl.NewAgent(cfg.AgentConfig(), net.Rng)
	}
	src := netsim.NewCountedSource(rand.NewSource(net.Rng.Int63()))
	t := &Tuner{
		Net:    net,
		Switch: sw,
		Agent:  agent,
		Cfg:    cfg,
		rng:    rand.New(src),
		rngSrc: src,
	}
	t.tickFn = func() {
		if t.stopped {
			return
		}
		t.tick()
		t.schedule()
	}
	eachWindow(sw, cfg.Prios, true, func(w window) {
		t.queues = append(t.queues, &queueState{window: w, action: t.closestAction(w.q.RED)})
	})
	t.schedule()
	return t
}

// Stop halts the tuning loop.
func (t *Tuner) Stop() { t.stopped = true }

// SetTelemetryFault installs (or, with nil, removes) a fault on the
// collector path. Queue indices passed to the fault are the tuner's
// monitored-queue indices, in [0, Queues()).
func (t *Tuner) SetTelemetryFault(f TelemetryFault) { t.fault = f }

// Queues returns the number of monitored queues.
func (t *Tuner) Queues() int { return len(t.queues) }

// QueueTrace returns the Kmin trace of monitored queue i (RecordTrace mode).
func (t *Tuner) QueueTrace(i int) *stats.Series { return &t.queues[i].KminTrace }

// closestAction finds the template entry nearest an existing RED config so
// the first state's ECN(c) feature reflects reality.
func (t *Tuner) closestAction(c red.Config) int {
	best, bestDist := 0, math.MaxFloat64
	for i, tc := range t.Cfg.Template {
		d := math.Abs(math.Log(float64(tc.Kmin)+1) - math.Log(float64(c.Kmin)+1))
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func (t *Tuner) schedule() {
	t.tickEv = t.Net.Q.ResetAfter(t.tickEv, t.Cfg.Period, t.tickFn)
}

// tick runs one monitoring/inference interval over all queues.
func (t *Tuner) tick() {
	t.ticks++
	for qi, qs := range t.queues {
		t.tickQueue(qi, qs)
	}
}

// features builds QS_t for a queue and returns it with the measured reward
// ingredients (utilization, average queue bytes over the interval).
func (t *Tuner) features(qs *queueState) (slot []float64, util, avgQ float64) {
	util, markedRate, avgQ, _ := qs.sample(t.Cfg.Period)
	slot = []float64{
		float64(LevelOf(qs.q.Bytes())) / float64(ELevels),
		util,
		markedRate,
		float64(qs.action) / float64(len(t.Cfg.Template)-1),
	}
	return slot, util, avgQ
}

// observation flattens the last k slots, zero-padding the warmup.
func (t *Tuner) observation(qs *queueState) []float64 {
	k := t.Cfg.HistoryK
	out := make([]float64, (k-len(qs.hist))*FeaturesPerSlot, k*FeaturesPerSlot)
	for _, s := range qs.hist {
		out = append(out, s...)
	}
	return out
}

func (t *Tuner) tickQueue(qi int, qs *queueState) {
	slot, util, avgQ := t.features(qs)

	// Injected telemetry faults intercept the collector output before it
	// reaches the data processor: the window can arrive stale or not at
	// all. Counter deltas in features() already advanced, exactly as a
	// real collector's cursor would — a lost window is lost for good.
	if t.fault != nil {
		obs, ok := t.fault.Sample(t.Net.Now(), qi, Observation{Slot: slot, Util: util, AvgQ: avgQ})
		if !ok {
			t.TelemetryDrops++
			// No sample: the agent cannot attribute the next reward to its
			// last action, so break the experience chain and keep the
			// current ECN setting.
			qs.prevState = nil
			return
		}
		slot, util, avgQ = obs.Slot, obs.Util, obs.AvgQ
	}

	qs.hist = append(qs.hist, slot)
	if len(qs.hist) > t.Cfg.HistoryK {
		qs.hist = qs.hist[1:]
	}
	state := t.observation(qs)

	reward := Reward(t.Cfg.W1, t.Cfg.W2, util, t.Cfg.Reward(avgQ))
	if t.Cfg.RecordTrace {
		qs.RewardTrace.Add(t.Net.Now(), reward)
	}

	// Learn from the previous action's outcome.
	if qs.prevState != nil {
		t.Agent.Observe(rl.Transition{
			State:  qs.prevState,
			Action: qs.prevAction,
			Reward: reward,
			Next:   state,
		})
		if t.Cfg.TrainOnline && t.ticks%t.Cfg.TrainEvery == 0 {
			if t.Cfg.PrioritizedAlpha > 0 {
				t.Agent.TrainStepPrioritized(t.rng, t.Cfg.PrioritizedAlpha)
			} else {
				t.Agent.TrainStep(t.rng)
			}
			t.TrainRuns++
		}
	}

	// Busy/idle gating (§4.2).
	if t.Cfg.BusyIdle {
		if math.Abs(reward-qs.lastReward) < 1e-9 {
			qs.sameReward++
		} else {
			qs.sameReward = 0
		}
		qs.lastReward = reward
		wasIdle := qs.idle
		if qs.idle {
			// Idle until the queue grows past Kmin again.
			qs.idle = qs.q.Bytes() <= qs.q.RED.Kmin
		} else {
			qs.idle = qs.q.Bytes() < qs.q.RED.Kmin && qs.sameReward >= idleSlots
		}
		if qs.idle {
			t.Skipped++
			if !wasIdle {
				qs.prevState = nil // break the experience chain while dormant
			}
			return
		}
	}

	// Inference + actuation.
	action := t.Agent.Act(state, t.rng)
	t.Inferences++
	// One agent transition per interval: the state that was acted on, the
	// action chosen, and the reward measured for the *previous* action.
	t.Net.Tracer.AgentStep(t.Net.Now(), t.Switch.ID(), qi, qs.q.Prio, action, reward)
	t.apply(qs, action)
	qs.prevState = state
	qs.prevAction = action
}

// apply maps the action index into the ECN template and programs the queue.
func (t *Tuner) apply(qs *queueState, action int) {
	prev := qs.q.RED
	qs.action = action
	qs.q.RED = t.Cfg.Template[action]
	if c := qs.q.RED; c != prev {
		// Only actual template changes hit the trace: the configurator
		// writing the same registers back is not an observable event.
		t.Net.Tracer.WREDUpdate(t.Net.Now(), t.Switch.ID(), qs.port.Index, qs.q.Prio, action, c.Kmin, c.Kmax, c.Pmax)
	}
	if t.Cfg.RecordTrace {
		qs.KminTrace.Add(t.Net.Now(), float64(qs.q.RED.Kmin))
	}
}
