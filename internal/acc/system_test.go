package acc

import (
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

func TestSystemSetEpsilon(t *testing.T) {
	net := netsim.New(52)
	fab := topo.Star(net, 3, topo.DefaultConfig())
	sys := NewSystem(net, fab.Switches(), nil, DefaultSystemConfig())
	sys.SetEpsilon(0.31)
	for _, tn := range sys.Tuners {
		if tn.Agent.Epsilon() != 0.31 {
			t.Fatalf("epsilon %v", tn.Agent.Epsilon())
		}
	}
}

func TestSystemStopHaltsTuners(t *testing.T) {
	net, fab := buildIncast(53, 4)
	sys := NewSystem(net, fab.Switches(), nil, DefaultSystemConfig())
	net.RunUntil(simtime.Time(2 * simtime.Millisecond))
	sys.Stop()
	var inf uint64
	for _, tn := range sys.Tuners {
		inf += tn.Inferences
	}
	net.RunUntil(simtime.Time(10 * simtime.Millisecond))
	var after uint64
	for _, tn := range sys.Tuners {
		after += tn.Inferences
	}
	if after != inf {
		t.Fatal("tuners kept inferring after System.Stop")
	}
}

func TestModelInitializesAgents(t *testing.T) {
	net := netsim.New(54)
	fab := topo.Star(net, 3, topo.DefaultConfig())
	// Train any model to have distinctive weights.
	donor := NewTuner(netsim.New(55), topo.Star(netsim.New(56), 2, topo.DefaultConfig()).Leaves[0], nil, DefaultConfig())
	model := donor.Agent.Eval
	sys := NewSystem(net, fab.Switches(), model, DefaultSystemConfig())
	x := make([]float64, DefaultConfig().StateDim())
	want := model.Forward(x)
	for _, tn := range sys.Tuners {
		got := tn.Agent.Eval.Forward(x)
		for i := range got {
			if got[i] != want[i] {
				t.Fatal("agent weights not initialized from the model")
			}
		}
	}
}

func TestRewardTraceRecording(t *testing.T) {
	net, fab := buildIncast(57, 4)
	cfg := DefaultConfig()
	cfg.RecordTrace = true
	tuner := NewTuner(net, fab.Leaves[0], nil, cfg)
	net.RunUntil(simtime.Time(5 * simtime.Millisecond))
	// The hot queue's reward trace must be populated and bounded in [0,1].
	rt := tuner.queues[4].RewardTrace
	if rt.Len() == 0 {
		t.Fatal("reward trace empty")
	}
	for _, v := range rt.Values {
		if v < 0 || v > 1 {
			t.Fatalf("reward %v outside [0,1]", v)
		}
	}
}

func TestCentralizedStop(t *testing.T) {
	net := netsim.New(58)
	fab := topo.LeafSpine(net, 2, 2, 1, topo.DefaultConfig())
	c := NewCentralized(net, fab.Leaves, fab.Spines)
	net.RunUntil(simtime.Time(5 * simtime.Millisecond))
	c.Stop()
	n := c.Inferences
	net.RunUntil(simtime.Time(20 * simtime.Millisecond))
	if c.Inferences != n {
		t.Fatal("centralized controller kept inferring after Stop")
	}
}
