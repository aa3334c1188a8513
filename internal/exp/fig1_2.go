package exp

import (
	"fmt"

	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/topo"
	"github.com/accnet/acc/internal/workload"
)

func init() {
	register("fig1", "optimal static ECN threshold differs per workload (throughput & queue vs K)", runFig1)
	register("fig2", "static settings rank differently per scenario (normalized FCT of SECN0/1/2)", runFig2)
}

// runFig1 reproduces Figure 1: sweep a single marking threshold K under
// (a) 8:1 incast with 32 flows/server and (b) 15:1 incast with 8
// flows/server, reporting receiver throughput and switch queue depth.
func runFig1(o Options) []*Table {
	type kase struct {
		name    string
		senders int
		flows   int
	}
	cases := []kase{
		{"Incast(8:1), 32 flows/server", 8, 32},
		{"Incast(15:1), 8 flows/server", 15, 8},
	}
	// Each K is a static policy: mark every packet above K.
	var ks []Policy
	for _, k := range []int{50 * simtime.KB, 100 * simtime.KB, 200 * simtime.KB, 500 * simtime.KB, simtime.MB, 2 * simtime.MB} {
		ks = append(ks, Policy{Name: fmt.Sprintf("%dKB", k/1024), Static: &red.Config{Kmin: k, Kmax: k, Pmax: 1}})
	}
	warm := o.dur(2 * simtime.Millisecond)
	meas := o.dur(8 * simtime.Millisecond)

	var tables []*Table
	for _, c := range cases {
		t := &Table{
			Title: "Figure 1: " + c.name,
			Cols:  []string{"K", "throughput(Gbps)", "avg queue(KB)"},
		}
		runs := runArms(o, star(c.senders+1, topo.DefaultConfig()), 0, ks, func(a arm) [2]float64 {
			recv := a.fab.Hosts[c.senders]
			start := rdmaStarter(a.net, 25*simtime.Gbps, nil)
			jitter := func() simtime.Duration { return simtime.Duration(a.net.Rng.Int63n(int64(100 * simtime.Microsecond))) }
			for _, s := range a.fab.Hosts[:c.senders] {
				renew(a.net, start, s, recv, simtime.MB, c.flows, jitter, nil)
			}
			hot := a.fab.Leaves[0].Ports[c.senders].Queues[0]
			a.net.RunUntil(simtime.Time(warm))
			tx0, in0 := hot.TxBytes, hot.ByteTimeIntegral()
			a.net.RunUntil(simtime.Time(warm + meas))
			return [2]float64{gbps(hot.TxBytes-tx0, meas), (hot.ByteTimeIntegral() - in0) / meas.Seconds()}
		})
		best, bestScore := "0KB", -1.0
		for i, r := range runs {
			tput, avgQ := r[0], r[1]
			t.AddRow(ks[i].Name, tput, kb(avgQ))
			// Optimality per the paper's framing: high throughput with a
			// small queue (penalize queueing delay).
			if score := tput - 2*avgQ/1e6; score > bestScore {
				bestScore, best = score, ks[i].Name
			}
		}
		t.Notes = append(t.Notes, "best throughput/queue tradeoff at K="+best)
		tables = append(tables, t)
	}
	return tables
}

// runFig2 reproduces Figure 2: average FCT of the three published static
// settings under a DataMining scenario and a WebSearch scenario, normalized
// to SECN0 (the DCTCP setting).
func runFig2(o Options) []*Table {
	scenarios := []struct {
		name  string
		sizes workload.CDF
	}{
		{"Scenario-1 (DataMining)", workload.DataMining()},
		{"Scenario-2 (WebSearch)", workload.WebSearch()},
	}
	policies := []Policy{secn0(), secn1(), secn2(25)}

	t := &Table{
		Title: "Figure 2: FCT under different static ECN settings (normalized to SECN0)",
		Cols:  []string{"scenario", "SECN0", "SECN1", "SECN2"},
	}
	dur := o.dur(10 * simtime.Millisecond)
	for _, sc := range scenarios {
		scen := poisson{fabric: testbed, sizes: sc.sizes, load: 0.5, dur: dur, until: dur}
		var avgs []float64
		for _, r := range scen.compare(o, policies...) {
			avgs = append(avgs, float64(stats.Summarize(r.flows).Avg))
		}
		t.addRatios(avgs, 0, sc.name)
	}
	t.Notes = append(t.Notes,
		"paper: SECN2 wins Scenario-1, SECN1 wins Scenario-2 — no static setting wins both")
	return []*Table{t}
}
