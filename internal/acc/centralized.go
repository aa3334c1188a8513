package acc

import (
	"math/rand"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
)

// ReducedTemplate samples the 20-entry template down to 10 entries (5 Kmin
// levels × 2 Pmax), giving 10² = 100 joint leaf/spine actions.
func ReducedTemplate() []red.Config {
	full := DefaultTemplate()
	var out []red.Config
	for n := 0; n < ELevels; n += 2 {
		out = append(out, full[2*n], full[2*n+1])
	}
	return out
}

// C-ACC's control loop (§3.2): a multi-millisecond loop against the
// distributed design's microseconds.
const (
	// centralPeriod is the controller's decision interval.
	centralPeriod = simtime.Millisecond
	// controlDelay is the collect + inference + actuation latency, the
	// centralized design's fundamental handicap.
	controlDelay = 2 * simtime.Millisecond
)

// Centralized is the C-ACC controller of §5.4: it collects aggregated
// state from every switch, picks a per-layer ECN setting (the paper's
// simplification "apply the same setting for all uplink ports or downlink
// ports because of the symmetric topology") from the reduced template, and
// actuates it only after controlDelay. It keeps DefaultConfig's history
// and reward, at centralPeriod.
type Centralized struct {
	Net   *netsim.Network
	Agent *rl.Agent

	cfg Config
	rng *rand.Rand

	layers [][]*netsim.Switch // [leafLayer, spineLayer]
	// Per-layer current action index into the template.
	layerAction []int
	// Per-layer collectors over every ECN-enabled queue, each judged
	// against its whole port.
	wins [][]window

	hist       [][]float64
	prevState  []float64
	prevAction int
	havePrev   bool

	Inferences uint64
	stopped    bool
}

// NewCentralized deploys the centralized controller over the fabric layers.
func NewCentralized(net *netsim.Network, leaves, spines []*netsim.Switch) *Centralized {
	cfg := DefaultConfig()
	// "we sampled some of the actions to further reduce action space ... to
	// hundreds of actions"
	cfg.Period, cfg.Template = centralPeriod, ReducedTemplate()
	c := &Centralized{
		Net:    net,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(net.Rng.Int63())),
		layers: [][]*netsim.Switch{leaves, spines},
	}
	c.layerAction = make([]int, len(c.layers))
	c.wins = make([][]window, len(c.layers))
	for li, layer := range c.layers {
		for _, sw := range layer {
			eachWindow(sw, nil, false, func(w window) { c.wins[li] = append(c.wins[li], w) })
		}
	}
	nActions := len(cfg.Template) * len(cfg.Template)
	ac := rl.DefaultAgentConfig(c.stateDim(), nActions)
	// A joint action space of ~100 needs a wider network and slower
	// exploration decay to cover it.
	ac.Hidden = []int{40, 64, 64}
	c.Agent = rl.NewAgent(ac, net.Rng)
	c.schedule()
	return c
}

func (c *Centralized) stateDim() int {
	return len(c.layers) * FeaturesPerSlot * c.cfg.HistoryK
}

// Stop halts the control loop.
func (c *Centralized) Stop() { c.stopped = true }

func (c *Centralized) schedule() {
	c.Net.Q.After(c.cfg.Period, func() {
		if c.stopped {
			return
		}
		c.tick()
		c.schedule()
	})
}

// observeLayer appends one layer's aggregate telemetry to slot — the
// deepest queue's level, the mean utilization and marked rate of the
// queues that sent, and the layer's action — and returns it with the sum
// of those queues' rewards and their count.
func (c *Centralized) observeLayer(li int, slot []float64) ([]float64, float64, int) {
	var qLevel, util, marked, rewardSum float64
	var active int
	for i := range c.wins[li] {
		w := &c.wins[li][i]
		u, m, avgQ, sent := w.sample(c.cfg.Period)
		qLevel = max(qLevel, float64(LevelOf(w.q.Bytes()))/float64(ELevels))
		if sent > 0 {
			active++
			util += u
			marked += m
			rewardSum += Reward(c.cfg.W1, c.cfg.W2, u, c.cfg.Reward(avgQ))
		}
	}
	if active > 0 {
		util /= float64(active)
		marked /= float64(active)
	}
	action := float64(c.layerAction[li]) / float64(len(c.cfg.Template)-1)
	return append(slot, qLevel, util, marked, action), rewardSum, active
}

func (c *Centralized) tick() {
	slot := make([]float64, 0, len(c.layers)*FeaturesPerSlot)
	var rewardSum float64
	var active int
	for li := range c.layers {
		var rs float64
		var act int
		slot, rs, act = c.observeLayer(li, slot)
		rewardSum += rs
		active += act
	}
	reward := 0.5 // neutral when the fabric is silent
	if active > 0 {
		reward = rewardSum / float64(active)
	}

	c.hist = append(c.hist, slot)
	if len(c.hist) > c.cfg.HistoryK {
		c.hist = c.hist[1:]
	}
	state := make([]float64, 0, c.stateDim())
	for i := len(c.hist); i < c.cfg.HistoryK; i++ {
		state = append(state, make([]float64, len(c.layers)*FeaturesPerSlot)...)
	}
	for _, s := range c.hist {
		state = append(state, s...)
	}

	if c.havePrev {
		c.Agent.Observe(rl.Transition{State: c.prevState, Action: c.prevAction, Reward: reward, Next: state})
		c.Agent.TrainStep(c.rng)
	}

	action := c.Agent.Act(state, c.rng)
	c.Inferences++
	c.prevState, c.prevAction, c.havePrev = state, action, true

	// The centralized design's Achilles heel: actuation lands only after the
	// control-loop delay (§3.2 "long latency for collecting network state
	// and updating ECN configuration").
	leafIdx := action / len(c.cfg.Template)
	spineIdx := action % len(c.cfg.Template)
	c.Net.Q.After(controlDelay, func() {
		if c.stopped {
			return
		}
		c.applyLayer(0, leafIdx)
		c.applyLayer(1, spineIdx)
	})
}

func (c *Centralized) applyLayer(li, tmplIdx int) {
	c.layerAction[li] = tmplIdx
	for _, sw := range c.layers[li] {
		sw.SetRED(c.cfg.Template[tmplIdx])
	}
}
