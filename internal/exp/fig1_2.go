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
	ks := []int{50 * simtime.KB, 100 * simtime.KB, 200 * simtime.KB, 500 * simtime.KB, simtime.MB, 2 * simtime.MB}

	var tables []*Table
	for _, c := range cases {
		t := &Table{
			Title: "Figure 1: " + c.name,
			Cols:  []string{"K", "throughput(Gbps)", "avg queue(KB)"},
		}
		bestK, bestScore := 0, -1.0
		for _, k := range ks {
			net := newNet(o, o.Seed)
			fab := topo.Star(net, c.senders+1, topo.DefaultConfig())
			sw := fab.Leaves[0]
			sw.SetRED(red.Config{Kmin: k, Kmax: k, Pmax: 1})
			recv := fab.Hosts[c.senders]
			start := rdmaStarter(net, 25*simtime.Gbps, nil)
			jitter := func() simtime.Duration { return simtime.Duration(net.Rng.Int63n(int64(100 * simtime.Microsecond))) }
			for _, s := range fab.Hosts[:c.senders] {
				renew(net, start, s, recv, simtime.MB, c.flows, jitter, nil)
			}

			warm := o.dur(2 * simtime.Millisecond)
			meas := o.dur(8 * simtime.Millisecond)
			hot := sw.Ports[c.senders].Queues[0]
			net.RunUntil(simtime.Time(warm))
			tx0, in0 := hot.TxBytes, hot.ByteTimeIntegral()
			net.RunUntil(simtime.Time(warm + meas))
			tput := gbps(hot.TxBytes-tx0, meas)
			avgQ := (hot.ByteTimeIntegral() - in0) / meas.Seconds()
			t.AddRow(fmt.Sprintf("%dKB", k/1024), tput, kb(avgQ))
			// Optimality per the paper's framing: high throughput with a
			// small queue (penalize queueing delay).
			score := tput - 2*avgQ/1e6
			if score > bestScore {
				bestScore, bestK = score, k
			}
		}
		t.Notes = append(t.Notes, fmt.Sprintf("best throughput/queue tradeoff at K=%dKB", bestK/1024))
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
