package exp

import (
	"fmt"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/topo"
	"github.com/accnet/acc/internal/workload"
)

func init() {
	register("ablation-history", "state history depth k in {1,3,5} (§3.3 Markov property)", runAblationHistory)
	register("ablation-ddqn", "Double DQN vs plain DQN target (§3.4)", runAblationDDQN)
	register("ablation-exchange", "global replay exchange on/off in the multi-agent system (§3.4)", runAblationExchange)
	register("ablation-busyidle", "busy/idle inference gating CPU savings (§4.2)", runAblationBusyIdle)
	register("ablation-period", "action period ΔT vs RTT (§3.3)", runAblationPeriod)
	register("ablation-hillclimb", "DRL agent vs greedy hill-climbing search over the same template", runAblationHillclimb)
	register("stress-failure", "stress test: spine link failure and recovery under load", runStressFailure)
	register("resources", "§6 resource-consumption estimate of the deployed agent", runResources)
}

// ablationScenario trains an agent online-from-scratch under a WebSearch
// load on the testbed Clos and reports the resulting FCT summary.
func ablationScenario(o Options, p Policy, dur simtime.Duration) stats.FCTSummary {
	net := newNet(o, o.Seed)
	fab := topo.TestbedClos(net, topo.DefaultConfig())
	stop := deploy(net, fab, p, o)
	var col stats.FCTCollector
	gen := workload.StartPoisson(net, workload.PoissonConfig{
		Hosts:  fab.Hosts,
		Sizes:  workload.WebSearch(),
		Load:   0.6,
		HostBW: 25 * simtime.Gbps,
		Start:  rdmaStarter(net, 25*simtime.Gbps, &col),
	})
	net.RunUntil(simtime.Time(dur))
	gen.Stop()
	net.RunUntil(simtime.Time(dur + dur/2))
	stop()
	return stats.Summarize(col.Records)
}

func runAblationHistory(o Options) []*Table {
	t := &Table{
		Title: "Ablation: state history depth k (normalized to k=3)",
		Cols:  []string{"k", "avg FCT", "p99 FCT"},
	}
	dur := o.dur(8 * simtime.Millisecond)
	var base stats.FCTSummary
	results := map[int]stats.FCTSummary{}
	for _, k := range []int{3, 1, 5} {
		p := Policy{Name: fmt.Sprintf("k=%d", k), ACC: true, HistoryK: k, FreshModel: true}
		s := ablationScenario(o, p, dur)
		results[k] = s
		if k == 3 {
			base = s
		}
	}
	for _, k := range []int{1, 3, 5} {
		s := results[k]
		t.AddRow(k, normalize(float64(s.Avg), float64(base.Avg)), normalize(float64(s.P99), float64(base.P99)))
	}
	t.Notes = append(t.Notes, "paper: k=3 suffices to summarize congestion without inflating the state space")
	return []*Table{t}
}

func runAblationDDQN(o Options) []*Table {
	t := &Table{
		Title: "Ablation: Double DQN vs plain DQN target (normalized to DDQN)",
		Cols:  []string{"variant", "avg FCT", "p99 FCT"},
	}
	dur := o.dur(8 * simtime.Millisecond)
	ddqn := ablationScenario(o, Policy{Name: "DDQN", ACC: true, FreshModel: true}, dur)
	dqn := ablationScenario(o, Policy{Name: "DQN", ACC: true, FreshModel: true, NoDoubleDQN: true}, dur)
	t.AddRow("DDQN (paper)", 1.0, 1.0)
	t.AddRow("DQN", normalize(float64(dqn.Avg), float64(ddqn.Avg)), normalize(float64(dqn.P99), float64(ddqn.P99)))
	t.Notes = append(t.Notes, "paper: DDQN reduces Q-value overestimation (§3.4)")
	return []*Table{t}
}

func runAblationExchange(o Options) []*Table {
	t := &Table{
		Title: "Ablation: global replay exchange (normalized to exchange on)",
		Cols:  []string{"variant", "avg FCT", "p99 FCT"},
	}
	dur := o.dur(8 * simtime.Millisecond)
	on := ablationScenario(o, Policy{Name: "exchange", ACC: true, FreshModel: true}, dur)
	off := ablationScenario(o, Policy{Name: "no-exchange", ACC: true, FreshModel: true, NoExchange: true}, dur)
	t.AddRow("exchange on (paper)", 1.0, 1.0)
	t.AddRow("exchange off", normalize(float64(off.Avg), float64(on.Avg)), normalize(float64(off.P99), float64(on.P99)))
	t.Notes = append(t.Notes, "paper: exchanging experiences across switches makes the learned model more stable and generalizable")
	return []*Table{t}
}

// runAblationBusyIdle measures the §4.2 optimization: inference invocations
// saved by gating idle queues, with the FCT cost (ideally none).
func runAblationBusyIdle(o Options) []*Table {
	t := &Table{
		Title: "Ablation: busy/idle inference gating (§4.2)",
		Cols:  []string{"variant", "inferences", "skipped", "saved", "avg FCT(norm)"},
	}
	dur := o.dur(8 * simtime.Millisecond)
	run := func(gate bool) (uint64, uint64, stats.FCTSummary) {
		net := newNet(o, o.Seed)
		fab := topo.TestbedClos(net, topo.DefaultConfig())
		scfg := acc.DefaultSystemConfig()
		scfg.Tuner.BusyIdle = gate
		sys := acc.NewSystem(net, fab.Switches(), o.model(), scfg)
		sys.SetEpsilon(0.01)
		var col stats.FCTCollector
		gen := workload.StartPoisson(net, workload.PoissonConfig{
			Hosts:  fab.Hosts,
			Sizes:  workload.WebSearch(),
			Load:   0.6,
			HostBW: 25 * simtime.Gbps,
			Start:  rdmaStarter(net, 25*simtime.Gbps, &col),
		})
		net.RunUntil(simtime.Time(dur))
		gen.Stop()
		net.RunUntil(simtime.Time(dur + dur/2))
		sys.Stop()
		var inf, skip uint64
		for _, tn := range sys.Tuners {
			inf += tn.Inferences
			skip += tn.Skipped
		}
		return inf, skip, stats.Summarize(col.Records)
	}
	infOn, skipOn, fctOn := run(true)
	infOff, skipOff, fctOff := run(false)
	saved := float64(skipOn) / float64(infOn+skipOn)
	t.AddRow("gating on (paper)", infOn, skipOn, fmt.Sprintf("%.0f%%", saved*100), 1.0)
	t.AddRow("gating off", infOff, skipOff, "0%", normalize(float64(fctOff.Avg), float64(fctOn.Avg)))
	t.Notes = append(t.Notes, "paper: gating idle queues cut switch-CPU consumption ~10%")
	return []*Table{t}
}

func runAblationPeriod(o Options) []*Table {
	t := &Table{
		Title: "Ablation: action period ΔT (normalized to 100µs)",
		Cols:  []string{"ΔT", "avg FCT", "p99 FCT"},
	}
	dur := o.dur(8 * simtime.Millisecond)
	var base stats.FCTSummary
	for _, period := range []simtime.Duration{100 * simtime.Microsecond, 20 * simtime.Microsecond, 500 * simtime.Microsecond, 2 * simtime.Millisecond} {
		p := Policy{Name: period.String(), ACC: true, Period: period}
		s := ablationScenario(o, p, dur)
		if base.Count == 0 {
			base = s
			t.AddRow(period, 1.0, 1.0)
			continue
		}
		t.AddRow(period, normalize(float64(s.Avg), float64(base.Avg)), normalize(float64(s.P99), float64(base.P99)))
	}
	t.Notes = append(t.Notes,
		"paper: ΔT one order of magnitude above RTT avoids interfering with DCQCN's control loop; too-small ΔT fights the CC, too-large reacts slowly")
	return []*Table{t}
}

// runAblationHillclimb pits the DRL tuner against a greedy hill climber
// using the identical telemetry, template, and reward.
func runAblationHillclimb(o Options) []*Table {
	t := &Table{
		Title: "Ablation: DRL (ACC) vs hill-climbing search (normalized to ACC)",
		Cols:  []string{"tuner", "avg FCT", "p99 FCT"},
	}
	dur := o.dur(8 * simtime.Millisecond)
	accS := ablationScenario(o, accPolicy(), dur)

	// Hill climber runs on the same scenario.
	net := newNet(o, o.Seed)
	fab := topo.TestbedClos(net, topo.DefaultConfig())
	var climbers []*acc.HillClimber
	for _, sw := range fab.Switches() {
		climbers = append(climbers, acc.NewHillClimber(net, sw, acc.DefaultConfig(), 10))
	}
	var col stats.FCTCollector
	gen := workload.StartPoisson(net, workload.PoissonConfig{
		Hosts:  fab.Hosts,
		Sizes:  workload.WebSearch(),
		Load:   0.6,
		HostBW: 25 * simtime.Gbps,
		Start:  rdmaStarter(net, 25*simtime.Gbps, &col),
	})
	net.RunUntil(simtime.Time(dur))
	gen.Stop()
	net.RunUntil(simtime.Time(dur + dur/2))
	for _, c := range climbers {
		c.Stop()
	}
	hc := stats.Summarize(col.Records)

	t.AddRow("ACC (DRL)", 1.0, 1.0)
	t.AddRow("hill climber", normalize(float64(hc.Avg), float64(accS.Avg)), normalize(float64(hc.P99), float64(accS.P99)))
	t.Notes = append(t.Notes,
		"the climber probes one neighbour at a time per queue, so it adapts but cannot generalize across traffic patterns the way the DRL policy does")
	return []*Table{t}
}

// runStressFailure exercises the §2.2 "failure scenarios" stress test: a
// spine uplink dies mid-run and later recovers; ACC must keep the fabric
// stable while ECMP reconverges onto fewer paths.
func runStressFailure(o Options) []*Table {
	t := &Table{
		Title: "Stress: spine link failure at t=T/3, recovery at t=2T/3 (WebSearch 60%)",
		Cols:  []string{"policy", "avg FCT", "p99 FCT", "drops"},
	}
	dur := o.dur(9 * simtime.Millisecond)
	var base stats.FCTSummary
	for _, p := range []Policy{accPolicy(), secn1()} {
		net := newNet(o, o.Seed)
		fab := topo.LeafSpine(net, 4, 6, 2, topo.DefaultConfig())
		stop := deploy(net, fab, p, o)
		var col stats.FCTCollector
		gen := workload.StartPoisson(net, workload.PoissonConfig{
			Hosts:  fab.Hosts,
			Sizes:  workload.WebSearch(),
			Load:   0.6,
			HostBW: 25 * simtime.Gbps,
			Start:  rdmaStarter(net, 25*simtime.Gbps, &col),
		})
		// Leaf 0's first uplink (port index 6 after the 6 host ports).
		failed := fab.Leaves[0].Ports[6]
		net.Q.After(dur/3, func() { failed.SetDown(true) })
		net.Q.After(2*dur/3, func() { failed.SetDown(false) })
		net.RunUntil(simtime.Time(dur))
		gen.Stop()
		net.RunUntil(simtime.Time(dur + dur/2))
		stop()
		s := stats.Summarize(col.Records)
		var drops uint64
		for _, sw := range fab.Switches() {
			drops += sw.DropsTotal
		}
		if base.Count == 0 {
			base = s
			t.AddRow(p.Name, 1.0, 1.0, drops)
			continue
		}
		t.AddRow(p.Name, normalize(float64(s.Avg), float64(base.Avg)), normalize(float64(s.P99), float64(base.P99)), drops)
	}
	return []*Table{t}
}

// runResources reproduces the §6 resource-consumption estimate for the
// deployed network.
func runResources(o Options) []*Table {
	cfg := acc.DefaultConfig()
	m := rl.NewMLP([]int{cfg.StateDim(), 20, 40, 40, len(cfg.Template)}, netsim.New(1).Rng)
	const (
		ports    = 48
		queues   = 1      // RDMA priority queues tuned per port
		sampleHz = 2000.0 // 500µs sampling
	)
	flopsPerPort := float64(m.ForwardFlops()) * sampleHz
	memBytes := m.NumParams() * 8

	t := &Table{
		Title: "§6 resource consumption of the per-switch agent",
		Cols:  []string{"resource", "value", "paper reports"},
	}
	t.AddRow("NN architecture", fmt.Sprint(m.Sizes), "{20,40,40,20} 4-layer")
	t.AddRow("parameters", m.NumParams(), "~30KB model memory")
	t.AddRow("model memory", fmt.Sprintf("%.1fKB (float64)", float64(memBytes)/1024), "30KB")
	t.AddRow("inference FLOPs/port/s", fmt.Sprintf("%.1fM", flopsPerPort/1e6), "14M Flops/port")
	t.AddRow("inference FLOPs/switch/s", fmt.Sprintf("%.2fG", flopsPerPort*ports*queues/1e9), "~1G Flops")
	t.AddRow("telemetry bandwidth/switch", fmt.Sprintf("%.1fMB/s", float64(ports*queues)*sampleHz*(4*4+46)/1e6), "2MB/s on PCIe")
	return []*Table{t}
}
