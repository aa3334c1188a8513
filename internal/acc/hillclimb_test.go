package acc

import (
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

func TestHillClimberProbesAndReverts(t *testing.T) {
	net, fab := buildIncast(12, 8)
	hc := NewHillClimber(net, fab.Leaves[0])
	net.RunUntil(simtime.Time(20 * simtime.Millisecond))
	hc.Stop()
	if hc.Trials == 0 {
		t.Fatal("hill climber never proposed a trial")
	}
	if hc.Reverts == 0 {
		t.Fatal("hill climber never reverted a bad trial (implausible under incast)")
	}
	// Applied config must always come from the template.
	hot := fab.Leaves[0].Ports[8].Queues[0]
	found := false
	for _, c := range DefaultConfig().Template {
		if c == hot.RED {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("applied RED %v not from template", hot.RED)
	}
}

func TestHillClimberStops(t *testing.T) {
	net := netsim.New(20)
	fab := topo.Star(net, 4, topo.DefaultConfig())
	hc := NewHillClimber(net, fab.Leaves[0])
	net.RunUntil(simtime.Time(2 * simtime.Millisecond))
	hc.Stop()
	trials := hc.Trials
	net.RunUntil(simtime.Time(10 * simtime.Millisecond))
	if hc.Trials != trials {
		t.Fatal("climber kept probing after Stop")
	}
}

func TestTunerPrioFilter(t *testing.T) {
	net := netsim.New(21)
	cfg := topo.DefaultConfig()
	w := make([]int, netsim.NumPrio)
	w[0], w[3] = 3, 7
	cfg.QueueWeights = w
	fab := topo.Star(net, 4, cfg)
	tcfg := DefaultConfig()
	tcfg.Prios = []int{3}
	tuner := NewTuner(net, fab.Leaves[0], nil, tcfg)
	// 4 ports x 1 queue (prio 3 only).
	if tuner.Queues() != 4 {
		t.Fatalf("monitoring %d queues, want 4 (prio-3 only)", tuner.Queues())
	}
}

func TestTunerPrioritizedReplayOption(t *testing.T) {
	net, fab := buildIncast(22, 4)
	cfg := DefaultConfig()
	cfg.PrioritizedAlpha = 0.6
	tuner := NewTuner(net, fab.Leaves[0], nil, cfg)
	net.RunUntil(simtime.Time(10 * simtime.Millisecond))
	if tuner.TrainRuns == 0 {
		t.Fatal("prioritized training never ran")
	}
}

func TestClosestAction(t *testing.T) {
	net := netsim.New(23)
	fab := topo.Star(net, 2, topo.DefaultConfig())
	cfg := DefaultConfig()
	// Program a RED close to template entry Kmin=160KB before attaching.
	fab.Leaves[0].SetRED(cfg.Template[6]) // Kmin=160KB Pmax=10%
	tuner := NewTuner(net, fab.Leaves[0], nil, cfg)
	// The initial action of every queue should resolve to a 160KB entry.
	for i := range tuner.queues {
		k := cfg.Template[tuner.queues[i].action].Kmin
		if k != 160*simtime.KB {
			t.Fatalf("closest action Kmin %d, want 160KB", k/simtime.KB)
		}
	}
}

func TestDWRRShareNormalization(t *testing.T) {
	net := netsim.New(24)
	cfg := topo.DefaultConfig()
	w := make([]int, netsim.NumPrio)
	w[0], w[3] = 3, 7
	cfg.QueueWeights = w
	fab := topo.Star(net, 2, cfg)
	tuner := NewTuner(net, fab.Leaves[0], nil, DefaultConfig())
	for _, qs := range tuner.queues {
		want := 0.3
		if qs.q.Prio == 3 {
			want = 0.7
		}
		if qs.share < want-1e-9 || qs.share > want+1e-9 {
			t.Fatalf("prio %d share %v, want %v", qs.q.Prio, qs.share, want)
		}
	}
}
