package exp

import (
	"fmt"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/psim"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
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

// ablation is the scenario the FCT ablations share: WebSearch at 60% load
// on the testbed Clos for 8ms, drained for half as long again.
func ablation(o Options) poisson {
	dur := o.dur(8 * simtime.Millisecond)
	return poisson{fabric: testbed, sizes: workload.WebSearch(), load: 0.6, dur: dur, until: dur + dur/2}
}

func runAblationHistory(o Options) []*Table {
	var arms []Policy
	for _, k := range []int{1, 3, 5} {
		arms = append(arms, Policy{Name: fmt.Sprint(k), Kind: DACC, HistoryK: k, FreshModel: true})
	}
	return ablation(o).fctTable(o, "Ablation: state history depth k (normalized to k=3)", "k",
		"paper: k=3 suffices to summarize congestion without inflating the state space", 1, arms...)
}

func runAblationDDQN(o Options) []*Table {
	return ablation(o).fctTable(o, "Ablation: Double DQN vs plain DQN target (normalized to DDQN)", "variant",
		"paper: DDQN reduces Q-value overestimation (§3.4)", 0,
		Policy{Name: "DDQN (paper)", Kind: DACC, FreshModel: true},
		Policy{Name: "DQN", Kind: DACC, FreshModel: true, NoDoubleDQN: true})
}

func runAblationExchange(o Options) []*Table {
	return ablation(o).fctTable(o, "Ablation: global replay exchange (normalized to exchange on)", "variant",
		"paper: exchanging experiences across switches makes the learned model more stable and generalizable", 0,
		Policy{Name: "exchange on (paper)", Kind: DACC, FreshModel: true},
		Policy{Name: "exchange off", Kind: DACC, FreshModel: true, NoExchange: true})
}

// runAblationBusyIdle measures the §4.2 optimization: inference invocations
// saved by gating idle queues, and the FCT cost of the gating, both with
// the pretrained model deployed as every other ACC arm deploys it.
func runAblationBusyIdle(o Options) []*Table {
	t := &Table{
		Title: "Ablation: busy/idle inference gating (§4.2)",
		Cols:  []string{"variant", "inferences", "skipped", "saved", "avg FCT(norm)"},
		Notes: []string{"paper: gating idle queues cut switch-CPU consumption ~10%"},
	}
	runs := ablation(o).compare(o, Policy{Name: "gating on (paper)", Kind: DACC}, Policy{Name: "gating off", Kind: DACC, NoBusyIdle: true})
	var inf, skip [2]uint64
	for i, r := range runs {
		for _, tn := range r.sys.Tuners {
			inf[i] += tn.Inferences
			skip[i] += tn.Skipped
		}
	}
	on, off := stats.Summarize(runs[0].flows).Avg, stats.Summarize(runs[1].flows).Avg
	saved := float64(skip[0]) / float64(inf[0]+skip[0])
	t.AddRow("gating on (paper)", inf[0], skip[0], fmt.Sprintf("%.0f%%", saved*100), ratio(on, on))
	t.AddRow("gating off", inf[1], skip[1], "0%", ratio(off, on))
	return []*Table{t}
}

func runAblationPeriod(o Options) []*Table {
	var arms []Policy
	for _, period := range []simtime.Duration{100 * simtime.Microsecond, 20 * simtime.Microsecond, 500 * simtime.Microsecond, 2 * simtime.Millisecond} {
		arms = append(arms, Policy{Name: period.String(), Kind: DACC, Period: period})
	}
	return ablation(o).fctTable(o, "Ablation: action period ΔT (normalized to 100µs)", "ΔT",
		"paper: ΔT one order of magnitude above RTT avoids interfering with DCQCN's control loop; too-small ΔT fights the CC, too-large reacts slowly", 0, arms...)
}

// runAblationHillclimb pits the DRL tuner against a greedy hill climber
// using the identical telemetry, template, and reward.
func runAblationHillclimb(o Options) []*Table {
	drl := accPolicy()
	drl.Name = "ACC (DRL)"
	return ablation(o).fctTable(o, "Ablation: DRL (ACC) vs hill-climbing search (normalized to ACC)", "tuner",
		"the climber probes one neighbour at a time per queue, so it adapts but cannot generalize across traffic patterns the way the DRL policy does", 0,
		drl, Policy{Name: "hill climber", Kind: HillClimb})
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
	sc := poisson{fabric: robustFabric, sizes: workload.WebSearch(), load: 0.6, dur: dur, until: dur + dur/2,
		faults: new(psim.Plan).DownUp(robustUplink(0), simtime.Time(dur/3), simtime.Time(2*dur/3))}
	arms := []Policy{accPolicy(), secn1()}
	runs := sc.compare(o, arms...)
	base := stats.Summarize(runs[0].flows)
	for i, r := range runs {
		var drops uint64
		for _, sw := range r.fab.Switches() {
			drops += sw.DropsTotal
		}
		t.addFCT(arms[i].Name, stats.Summarize(r.flows), base, drops)
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
