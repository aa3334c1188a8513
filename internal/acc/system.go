package acc

import (
	"github.com/accnet/acc/internal/eventq"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
)

// SystemConfig controls the multi-agent coupling of §3.4: a global replay
// memory that periodically exchanges experience samples with each switch's
// local memory, making the learned models more stable and generalizable.
type SystemConfig struct {
	Tuner Config
	// ExchangePeriod is how often local/global samples are swapped. The
	// paper uses several seconds in production; scaled simulations use
	// milliseconds.
	ExchangePeriod simtime.Duration
}

const (
	// globalReplayCap is the capacity of the shared memory.
	globalReplayCap = 16384
	// exchangeSamples is how many transitions move in each direction per
	// exchange per switch.
	exchangeSamples = 64
)

// DefaultSystemConfig scales the exchange to simulation timescales.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		Tuner:          DefaultConfig(),
		ExchangePeriod: 5 * simtime.Millisecond,
	}
}

// System manages one ACC tuner per switch plus the global replay memory.
type System struct {
	//acclint:ignore snapcover construction wiring: NewSystem on the rebuilt shard Network
	Net    *netsim.Network
	Tuners []*Tuner
	Global *rl.Replay
	//acclint:ignore snapcover construction config: restore overlays a System NewSystem built with the same config
	Cfg SystemConfig

	Exchanges uint64
	stopped   bool

	// exchEv/exchFn are the exchange loop's reusable timer handle and
	// pre-bound callback (see Tuner.tickEv).
	exchEv *eventq.Event
	exchFn func()

	//acclint:ignore snapcover scratch: every exchange overwrites the slots it draws into before reading them
	exchBuf []rl.Transition
}

// NewSystem deploys ACC on every switch. If model is non-nil its weights
// initialize every agent (the §4.3 "install the same offline training model
// for network switches" step).
func NewSystem(net *netsim.Network, switches []*netsim.Switch, model *rl.MLP, cfg SystemConfig) *System {
	s := &System{Net: net, Global: rl.NewReplay(globalReplayCap), Cfg: cfg,
		exchBuf: make([]rl.Transition, exchangeSamples)}

	for _, sw := range switches {
		s.Tuners = append(s.Tuners, NewTuner(net, sw, s.newAgent(net, model), cfg.Tuner))
	}
	s.exchFn = func() {
		if s.stopped {
			return
		}
		s.exchange()
		s.scheduleExchange()
	}
	if cfg.ExchangePeriod > 0 && len(s.Tuners) > 1 {
		s.scheduleExchange()
	}
	return s
}

func (s *System) newAgent(net *netsim.Network, model *rl.MLP) *rl.Agent {
	a := rl.NewAgent(s.Cfg.Tuner.AgentConfig(), net.Rng)
	if model != nil {
		a.Eval.CopyFrom(model)
		a.Target.CopyFrom(model)
	}
	return a
}

// Stop halts all tuners and the exchange loop.
func (s *System) Stop() {
	s.stopped = true
	for _, t := range s.Tuners {
		t.Stop()
	}
}

// SetEpsilon sets exploration on all agents (e.g. a small residual ε when
// starting from a pre-trained model, §4.3).
func (s *System) SetEpsilon(e float64) {
	for _, t := range s.Tuners {
		t.Agent.SetEpsilon(e)
	}
}

func (s *System) scheduleExchange() {
	s.exchEv = s.Net.Q.ResetAfter(s.exchEv, s.Cfg.ExchangePeriod, s.exchFn)
}

// exchange moves experience local→global and global→local for every tuner
// (§3.4: "agents at different switches can exchange experiences and explore
// different parts of the whole network environment").
func (s *System) exchange() {
	s.Exchanges++
	buf := s.exchBuf
	for _, t := range s.Tuners {
		for _, tr := range t.Agent.Memory.Sample(t.rng, buf[:min(len(buf), t.Agent.Memory.Len())]) {
			s.Global.Add(tr)
		}
	}
	for _, t := range s.Tuners {
		for _, tr := range s.Global.Sample(t.rng, buf[:min(len(buf), s.Global.Len())]) {
			t.Agent.Memory.Add(tr)
		}
	}
}
