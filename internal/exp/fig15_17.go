package exp

import (
	"fmt"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/topo"
	"github.com/accnet/acc/internal/workload"
)

func init() {
	register("fig15", "deep dive: runtime queue occupancy and applied thresholds under a burst", runFig15)
	register("fig16", "stability with unseen traffic: online training across workload switches", runFig16)
	register("fig17", "reward-design ablation: step vs linear queue-length reward", runFig17)
}

// runFig15 reproduces Figure 15: sample the hot queue and the ECN threshold
// ACC applies around a burst arrival, showing the lower-threshold reaction
// to a growing queue and the raise once the queue clears.
func runFig15(o Options) []*Table {
	// A Star has one switch, so the system is one tuner and no exchange.
	return runArms(o, star(9, topo.DefaultConfig()), 0, []Policy{accPolicy()}, func(a arm) []*Table {
		net, fab := a.net, a.fab
		recv := fab.Hosts[8]
		tuner := a.sys.Tuners[0]
		tuner.Cfg.RecordTrace = true // before its first tick

		start := rdmaStarter(net, 25*simtime.Gbps, nil)
		// Background long flow, then a burst at t=2ms.
		start(fab.Hosts[0], recv, 1<<40, nil)
		net.Q.After(2*simtime.Millisecond, func() {
			workload.RunIncast(net, workload.IncastConfig{
				Senders:  fab.Hosts[1:8],
				Receiver: recv,
				Flows:    8,
				Size:     512 * simtime.KB,
				Start:    start,
			}, nil)
		})

		hot := fab.Leaves[0].Ports[8].Queues[0]
		qmon := stats.MonitorQueue(net, hot, 100*simtime.Microsecond)
		net.RunUntil(simtime.Time(o.dur(8 * simtime.Millisecond)))
		qmon.Stop()

		t := &Table{
			Title: "Figure 15: runtime queue occupancy and applied Kmin around a burst (t=2ms)",
			Cols:  []string{"time(ms)", "queue(KB)", "applied Kmin(KB)"},
		}
		trace := tuner.QueueTrace(8)
		kminAt := func(at simtime.Time) float64 {
			last := 0.0
			for i, tt := range trace.Times {
				if tt > at {
					break
				}
				last = trace.Values[i]
			}
			return last
		}
		for i := 0; i < qmon.Series.Len(); i += 2 {
			at := qmon.Series.Times[i]
			t.AddRow(fmt.Sprintf("%.1f", at.Seconds()*1e3), kb(qmon.Series.Values[i]), kb(kminAt(at)))
		}
		t.Notes = append(t.Notes,
			"paper: rising queue + high utilization -> lower threshold (more marking); near-empty queue -> higher threshold (avoid starving)")
		return []*Table{t}
	})[0]
}

// runFig16 reproduces Figure 16: an aggressive ACC model with NO offline
// training faces workload switches (WebSearch <-> DataMining). FCT degrades
// briefly after the first switch, converges, and stays good when a
// previously seen pattern returns.
func runFig16(o Options) []*Table {
	// Scaled timeline: P1 WebSearch [0,4ms), P2 DataMining [4,8ms),
	// P1 again [8,10ms), P2 again [10,12ms).
	seg := o.dur(4 * simtime.Millisecond)
	segments := []struct {
		name string
		wl   workload.CDF
		dur  simtime.Duration
	}{
		{"P1 WebSearch (cold)", workload.WebSearch(), seg},
		{"P2 DataMining (unseen switch)", workload.DataMining(), seg},
		{"P1 WebSearch (return)", workload.WebSearch(), seg / 2},
		{"P2 DataMining (return)", workload.DataMining(), seg / 2},
	}
	policies := []Policy{
		{Name: "ACC(no-offline)", Kind: DACC, FreshModel: true},
		secn1(),
		secn2(25),
	}
	t := &Table{
		Title: "Figure 16: FCT during online training across workload switches (per segment, normalized to SECN1)",
		Cols:  []string{"segment", "ACC(no-offline)", "SECN1", "SECN2"},
	}
	// avg FCT per policy per segment.
	avgs := runArms(o, testbed, len(segments), policies, func(a arm) []float64 {
		avg := make([]float64, len(segments))
		var col stats.FCTCollector
		start := rdmaStarter(a.net, 25*simtime.Gbps, &col)
		var at simtime.Duration
		for si, sg := range segments {
			gen := workload.StartPoisson(a.net, a.seeds[si], workload.PoissonConfig{
				Hosts:  a.fab.Hosts,
				Sizes:  sg.wl,
				Load:   0.5,
				HostBW: 25 * simtime.Gbps,
				Start:  start,
			})
			mark := len(col.Records)
			a.net.RunUntil(simtime.Time(at + sg.dur))
			gen.Stop()
			avg[si] = float64(stats.Summarize(col.Records[mark:]).Avg)
			at += sg.dur
		}
		return avg
	})
	for si, sg := range segments {
		base := avgs[1][si] // SECN1
		t.AddRow(sg.name, ratio(avgs[0][si], base), ratio(base, base), ratio(avgs[2][si], base))
	}
	t.Notes = append(t.Notes,
		"paper: a brief FCT spike right after an unseen switch, then convergence below static; revisited patterns stay good",
		"paper: overall ACC 31.1%/56.2% lower avg FCT than SECN1/SECN2 during this run")
	return []*Table{t}
}

// runFig17 reproduces the appendix reward ablation (Figure 17): under a
// sustained incast, agents trained with the step reward (Design-2) converge
// to the expected aggressive marking, while the linear reward (Design-1)
// cannot differentiate actions and converges arbitrarily.
func runFig17(o Options) []*Table {
	// Figure 17(a): the analytic heart of the appendix — reward values the
	// two designs assign across queue depths. Design-1 (linear over a 10MB
	// range) barely separates the small queue depths where congestion
	// actually lives; Design-2 (step) separates them strongly.
	spread := &Table{
		Title: "Figure 17(a): queue-length reward D(L) by design",
		Cols:  []string{"avg queue", "Design-1 (linear)", "Design-2 (step)"},
	}
	for _, q := range []int{20 * simtime.KB, 80 * simtime.KB, 320 * simtime.KB, 1280 * simtime.KB, 5 * simtime.MB, 10 * simtime.MB} {
		spread.AddRow(fmt.Sprintf("%dKB", q/simtime.KB), acc.LinearReward(float64(q)), acc.StepReward(float64(q)))
	}
	spread.Notes = append(spread.Notes,
		"Design-1 assigns near-identical rewards to 20KB..1.28MB queues; Design-2 spreads them over [0.2,1.0]")

	decisions := &Table{
		Title: "Figure 17(b): converged action decisions under incast congestion",
		Cols:  []string{"reward design", "modal Kmin(KB)", "avg queue(KB)", "throughput(Gbps)"},
	}
	for _, design := range []struct {
		name string
		fn   acc.RewardFunc
	}{
		{"Design-2 (step, paper)", acc.StepReward},
		{"Design-1 (linear)", acc.LinearReward},
	} {
		net := newNet(o, o.Seed)
		fab := topo.Star(net, 9, topo.DefaultConfig())
		recv := fab.Hosts[8]
		start := rdmaStarter(net, 25*simtime.Gbps, nil)
		for i := 0; i < 8; i++ {
			start(fab.Hosts[i], recv, 1<<40, nil) // long-lived incast
		}
		cfg := acc.DefaultConfig()
		cfg.Reward = design.fn
		cfg.RecordTrace = true
		ac := rl.DefaultAgentConfig(cfg.StateDim(), len(cfg.Template))
		ac.EpsDecay = 0.995 // online-from-scratch: fast decay (§4.3)
		cfg.Agent = ac
		tuner := acc.NewTuner(net, fab.Leaves[0], nil, cfg)

		dur := o.dur(30 * simtime.Millisecond)
		hot := fab.Leaves[0].Ports[8].Queues[0]
		net.RunUntil(simtime.Time(dur / 2))
		in0, tx0 := hot.ByteTimeIntegral(), hot.TxBytes
		net.RunUntil(simtime.Time(dur))
		tuner.Stop()

		// Mode of the applied Kmin over the converged half.
		trace := tuner.QueueTrace(8)
		counts := map[float64]int{}
		for i, at := range trace.Times {
			if at >= simtime.Time(dur/2) {
				counts[trace.Values[i]]++
			}
		}
		var mode float64
		best := 0
		//acclint:ignore determinism@1 ties break on (count, then smallest value), so the result is iteration-order-independent
		for v, c := range counts {
			if c > best || (c == best && v < mode) {
				best, mode = c, v
			}
		}
		meas := (dur / 2).Seconds()
		avgQ := (hot.ByteTimeIntegral() - in0) / meas
		decisions.AddRow(design.name, kb(mode), kb(avgQ), gbps(hot.TxBytes-tx0, dur/2))
	}
	decisions.Notes = append(decisions.Notes,
		"paper: the step reward differentiates small-queue states and picks the expected action; the linear reward gives near-identical rewards to all actions")
	return []*Table{spread, decisions}
}
