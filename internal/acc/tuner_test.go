package acc

import (
	"testing"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

// buildIncast wires a star fabric with n senders and one receiver and
// launches continuous incast traffic.
func buildIncast(seed int64, n int) (*netsim.Network, *topo.Fabric) {
	net := netsim.New(seed)
	fab := topo.Star(net, n+1, topo.DefaultConfig())
	recv := fab.Hosts[n]
	params := dcqcn.DefaultParams(25 * simtime.Gbps)
	for i := 0; i < n; i++ {
		src := fab.Hosts[i]
		var loop func(*dcqcn.Flow)
		loop = func(*dcqcn.Flow) {
			// Jittered restart: real request streams are not synchronized.
			net.Q.After(simtime.Duration(net.Rng.Int63n(int64(200*simtime.Microsecond))), func() {
				dcqcn.Start(net, src, recv, 2*simtime.MB, params, loop)
			})
		}
		dcqcn.Start(net, src, recv, 2*simtime.MB, params, loop)
	}
	return net, fab
}

func TestTunerActsAndLearns(t *testing.T) {
	net, fab := buildIncast(1, 8)
	cfg := DefaultConfig()
	cfg.RecordTrace = true
	tuner := NewTuner(net, fab.Leaves[0], nil, cfg)
	if tuner.Queues() != 9 {
		t.Fatalf("monitoring %d queues, want 9 (one per port)", tuner.Queues())
	}
	net.RunUntil(simtime.Time(20 * simtime.Millisecond))
	if tuner.Inferences == 0 {
		t.Fatal("tuner never ran inference")
	}
	if tuner.TrainRuns == 0 {
		t.Fatal("tuner never trained online")
	}
	if tuner.Agent.Memory.Len() == 0 {
		t.Fatal("no experience collected")
	}
	// The receiver-facing queue is hot: its trace must show threshold
	// changes (exploration at minimum).
	trace := tuner.QueueTrace(8)
	if trace.Len() < 10 {
		t.Fatalf("hot queue trace has only %d points", trace.Len())
	}
	changed := false
	for i := 1; i < trace.Len(); i++ {
		if trace.Values[i] != trace.Values[0] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("applied Kmin never changed")
	}
}

func TestBusyIdleGating(t *testing.T) {
	// With no traffic at all, every queue goes idle and inference stops.
	net := netsim.New(2)
	fab := topo.Star(net, 4, topo.DefaultConfig())
	cfg := DefaultConfig()
	tuner := NewTuner(net, fab.Leaves[0], nil, cfg)
	net.RunUntil(simtime.Time(5 * simtime.Millisecond))
	if tuner.Skipped == 0 {
		t.Fatal("no inference skips on an idle fabric")
	}
	// After warmup, skips should dominate inferences.
	if tuner.Skipped < tuner.Inferences {
		t.Fatalf("idle fabric: skipped=%d < inferences=%d", tuner.Skipped, tuner.Inferences)
	}

	// Control: gating disabled means zero skips.
	net2 := netsim.New(2)
	fab2 := topo.Star(net2, 4, topo.DefaultConfig())
	cfg2 := DefaultConfig()
	cfg2.BusyIdle = false
	tuner2 := NewTuner(net2, fab2.Leaves[0], nil, cfg2)
	net2.RunUntil(simtime.Time(5 * simtime.Millisecond))
	if tuner2.Skipped != 0 {
		t.Fatalf("gating disabled but %d skips", tuner2.Skipped)
	}
}

func TestBusyQueueNotGated(t *testing.T) {
	net, fab := buildIncast(3, 8)
	cfg := DefaultConfig()
	tuner := NewTuner(net, fab.Leaves[0], nil, cfg)
	net.RunUntil(simtime.Time(10 * simtime.Millisecond))
	// The hot queue must keep receiving inferences: overall inference count
	// should be substantial (hot queue ticks every period).
	minTicks := uint64(10 * simtime.Millisecond / cfg.Period / 4)
	if tuner.Inferences < minTicks {
		t.Fatalf("inferences %d below %d despite persistent congestion", tuner.Inferences, minTicks)
	}
}

func TestTunerImprovesOverStaticWorstCase(t *testing.T) {
	// The paper's deployment pipeline: offline pre-training (§4.3), then
	// online operation with a small residual exploration. Under a persistent
	// 8:1 incast, ACC must keep a much shorter queue than a static
	// deep-threshold setting, without collapsing throughput.
	if testing.Short() {
		t.Skip("includes offline pre-training")
	}
	ocfg := DefaultOfflineConfig()
	ocfg.Episodes = 12
	ocfg.EpisodeTime = 8 * simtime.Millisecond
	pretrained := TrainOffline(ocfg)

	runCase := func(useACC bool) (avgQ float64, txBytes uint64) {
		// Long-lived 8:1 incast (flows outlive the experiment), so the queue
		// depth is governed purely by the marking threshold.
		net := netsim.New(4)
		fab := topo.Star(net, 9, topo.DefaultConfig())
		recv := fab.Hosts[8]
		params := dcqcn.DefaultParams(25 * simtime.Gbps)
		for i := 0; i < 8; i++ {
			dcqcn.Start(net, fab.Hosts[i], recv, 1<<40, params, nil)
		}
		sw := fab.Leaves[0]
		deep := DefaultTemplate()[19] // Kmin=10.24MB: effectively no marking
		sw.SetRED(deep)
		if useACC {
			cfg := DefaultConfig()
			agent := rl.NewAgent(rl.DefaultAgentConfig(cfg.StateDim(), len(cfg.Template)), net.Rng)
			agent.Eval.CopyFrom(pretrained.Eval)
			agent.Target.CopyFrom(pretrained.Eval)
			agent.SetEpsilon(0.05)
			NewTuner(net, sw, agent, cfg)
		}
		hot := sw.Ports[8].Queues[0]
		// Skip the warmup transient, then measure steady state.
		net.RunUntil(simtime.Time(15 * simtime.Millisecond))
		integ0, tx0 := hot.ByteTimeIntegral(), hot.TxBytes
		net.RunUntil(simtime.Time(45 * simtime.Millisecond))
		avgQ = (hot.ByteTimeIntegral() - integ0) / (30 * simtime.Millisecond).Seconds()
		return avgQ, hot.TxBytes - tx0
	}
	staticQ, staticTx := runCase(false)
	accQ, accTx := runCase(true)
	if accQ >= 0.75*staticQ {
		t.Fatalf("ACC avg queue %.0fKB not well below static deep threshold %.0fKB", accQ/1024, staticQ/1024)
	}
	if float64(accTx) < 0.7*float64(staticTx) {
		t.Fatalf("ACC throughput %.1fMB collapsed vs static %.1fMB", float64(accTx)/1e6, float64(staticTx)/1e6)
	}
}

func TestSystemExchange(t *testing.T) {
	net := netsim.New(5)
	fab := topo.LeafSpine(net, 2, 4, 2, topo.DefaultConfig())
	params := dcqcn.DefaultParams(25 * simtime.Gbps)
	// Cross-leaf incast keeps both tiers busy.
	recv := fab.HostsAt[0][0]
	for _, src := range fab.HostsAt[1] {
		src := src
		var loop func(*dcqcn.Flow)
		loop = func(*dcqcn.Flow) { dcqcn.Start(net, src, recv, simtime.MB, params, loop) }
		loop(nil)
	}
	scfg := DefaultSystemConfig()
	scfg.ExchangePeriod = simtime.Millisecond
	sys := NewSystem(net, fab.Switches(), nil, scfg)
	net.RunUntil(simtime.Time(10 * simtime.Millisecond))
	if len(sys.Tuners) != 4 {
		t.Fatalf("%d tuners, want 4", len(sys.Tuners))
	}
	if sys.Exchanges == 0 {
		t.Fatal("no global replay exchanges happened")
	}
	if sys.Global.Len() == 0 {
		t.Fatal("global replay memory empty after exchanges")
	}
}

func TestCentralizedControllerTicks(t *testing.T) {
	net := netsim.New(7)
	fab := topo.LeafSpine(net, 2, 4, 2, topo.DefaultConfig())
	params := dcqcn.DefaultParams(25 * simtime.Gbps)
	recv := fab.HostsAt[0][0]
	for _, src := range fab.HostsAt[1] {
		src := src
		var loop func(*dcqcn.Flow)
		loop = func(*dcqcn.Flow) { dcqcn.Start(net, src, recv, simtime.MB, params, loop) }
		loop(nil)
	}
	c := NewCentralized(net, fab.Leaves, fab.Spines)
	net.RunUntil(simtime.Time(20 * simtime.Millisecond))
	if c.Inferences == 0 {
		t.Fatal("centralized controller never inferred")
	}
	// Actuation must have reached the switches: every leaf shares one
	// config from the reduced template.
	leafRED := fab.Leaves[0].Ports[0].Queues[0].RED
	found := false
	for _, tc := range ReducedTemplate() {
		if tc == leafRED {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("leaf RED %v not from the reduced template", leafRED)
	}
	for _, leaf := range fab.Leaves {
		if got := leaf.Ports[0].Queues[0].RED; got != leafRED {
			t.Fatalf("leaves diverge: %v vs %v", got, leafRED)
		}
	}
}

func TestOfflineTrainingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("offline training is seconds-long")
	}
	cfg := DefaultOfflineConfig()
	cfg.Episodes = 4
	cfg.EpisodeTime = 5 * simtime.Millisecond
	var calls int
	cfg.Progress = func(ep int, eps float64) { calls++ }
	agent := TrainOffline(cfg)
	if agent == nil {
		t.Fatal("nil agent")
	}
	if calls != 4 {
		t.Fatalf("progress called %d times, want 4", calls)
	}
	if agent.Epsilon() >= 1 {
		t.Fatal("epsilon never decayed during offline training")
	}
	if agent.Memory.Len() == 0 {
		t.Fatal("no experience accumulated")
	}
}
