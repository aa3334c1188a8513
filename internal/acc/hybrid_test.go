package acc

import (
	"testing"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

func TestHybridControllerTrainsAndPushes(t *testing.T) {
	net := netsim.New(9)
	fab := topo.LeafSpine(net, 2, 4, 2, topo.DefaultConfig())
	params := dcqcn.DefaultParams(25 * simtime.Gbps)
	recv := fab.HostsAt[0][0]
	for _, src := range fab.HostsAt[1] {
		src := src
		var loop func(*dcqcn.Flow)
		loop = func(*dcqcn.Flow) { dcqcn.Start(net, src, recv, simtime.MB, params, loop) }
		loop(nil)
	}
	h := NewHybrid(net, fab.Switches(), nil)
	net.RunUntil(simtime.Time(10 * simtime.Millisecond))
	if h.TrainRuns == 0 {
		t.Fatal("controller never trained")
	}
	if h.Pushes == 0 {
		t.Fatal("controller never pushed weights")
	}
	// Switch tuners must never train locally in hybrid mode.
	for _, tn := range h.Tuners {
		if tn.TrainRuns != 0 {
			t.Fatalf("switch tuner trained locally %d times in hybrid mode", tn.TrainRuns)
		}
	}
	// After a push, switch weights equal the controller snapshot (modulo a
	// training step after the snapshot; compare across tuners instead).
	x := make([]float64, DefaultConfig().StateDim())
	a := h.Tuners[0].Agent.Eval.Forward(x)
	b := h.Tuners[1].Agent.Eval.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("switch models diverged despite centralized training: %v vs %v", a, b)
		}
	}
	h.Stop()
}

func TestHybridStop(t *testing.T) {
	net := netsim.New(10)
	fab := topo.Star(net, 4, topo.DefaultConfig())
	h := NewHybrid(net, fab.Switches(), nil)
	net.RunUntil(simtime.Time(simtime.Millisecond))
	h.Stop()
	runs := h.TrainRuns
	net.RunUntil(simtime.Time(20 * simtime.Millisecond))
	if h.TrainRuns != runs {
		t.Fatal("controller kept training after Stop")
	}
}

func TestHybridSetEpsilon(t *testing.T) {
	net := netsim.New(11)
	fab := topo.Star(net, 4, topo.DefaultConfig())
	h := NewHybrid(net, fab.Switches(), nil)
	h.SetEpsilon(0.123)
	for _, tn := range h.Tuners {
		if tn.Agent.Epsilon() != 0.123 {
			t.Fatalf("epsilon not applied: %v", tn.Agent.Epsilon())
		}
	}
}
