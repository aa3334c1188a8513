package exp

import (
	"fmt"
	"math/rand"

	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/topo"
	"github.com/accnet/acc/internal/workload"
)

func init() {
	register("fig6", "ACC adapts across traffic phase changes (queue & utilization timeline)", runFig6)
	register("fig7", "end-to-end FCT at 20%/60% load by message size; queue and ToR throughput", runFig7)
}

// runFig6 reproduces Figure 6: the incast degree and flow count change every
// phase; static settings match only some phases while ACC adapts. Reported
// per phase: average queue depth and average utilization of the hot port.
func runFig6(o Options) []*Table {
	type phase struct {
		senders, flows int
	}
	// Scaled version of "randomly change the number of flows and the number
	// of Incast senders every 100 seconds".
	phases := []phase{{4, 2}, {12, 16}, {8, 4}}
	phaseDur := o.dur(8 * simtime.Millisecond)

	policies := []Policy{accPolicy(), secn1(), secn2(25)}
	t := &Table{
		Title: "Figure 6: adaptation to heterogeneous traffic (per-phase hot-port stats)",
		Cols:  []string{"policy", "phase", "senders x flows", "avg queue(KB)", "utilization"},
	}
	summary := &Table{
		Title: "Figure 6 (summary over all phases)",
		Cols:  []string{"policy", "avg queue(KB)", "avg utilization"},
	}
	// Each arm's average queue and utilization, by phase.
	runs := runArms(o, star(13, topo.DefaultConfig()), 1, policies, func(a arm) [][2]float64 {
		net, fab := a.net, a.fab
		recv := fab.Hosts[12]
		rng := rand.New(rand.NewSource(a.seeds[0]))
		start := rdmaStarter(net, 25*simtime.Gbps, nil)
		hot := fab.Leaves[0].Ports[12]
		hq := hot.Queues[0]

		// Each phase launches its incast; flows from the previous phase
		// stop being renewed (generation routines check the active phase).
		active := 0
		jitter := func() simtime.Duration { return workload.ExpJitter(rng, 50*simtime.Microsecond) }
		launch := func(idx int, ph phase) func() {
			return func() {
				active = idx
				live := func() bool { return active == idx }
				for _, s := range fab.Hosts[:ph.senders] {
					renew(net, start, s, recv, simtime.MB, ph.flows, jitter, live)
				}
			}
		}
		var sched []workload.Phase
		for i, ph := range phases {
			sched = append(sched, workload.Phase{Duration: phaseDur, Run: launch(i, ph)})
		}
		workload.RunPhases(net, sched)

		per := make([][2]float64, len(phases))
		for i := range phases {
			startT := simtime.Time(simtime.Duration(i) * phaseDur)
			net.RunUntil(startT)
			in0, tx0 := hq.ByteTimeIntegral(), hot.TxBytesTotal
			net.RunUntil(startT.Add(phaseDur))
			per[i] = [2]float64{(hq.ByteTimeIntegral() - in0) / phaseDur.Seconds(), hot.Utilization(hot.TxBytesTotal-tx0, phaseDur)}
		}
		return per
	})
	for pi, p := range policies {
		var totalQ, totalU float64
		for i, r := range runs[pi] {
			totalQ += r[0]
			totalU += r[1]
			t.AddRow(p.Name, i+1, fmt.Sprintf("%dx%d", phases[i].senders, phases[i].flows), kb(r[0]), r[1])
		}
		summary.AddRow(p.Name, kb(totalQ/float64(len(phases))), totalU/float64(len(phases)))
	}
	summary.Notes = append(summary.Notes,
		"paper: ACC reduces queue length by an order of magnitude and improves avg throughput 26.1%")
	return []*Table{t, summary}
}

// runFig7 reproduces Figure 7: two senders to one receiver with message
// sizes {1KB,10KB,100KB,1MB,10MB} at 20% and 60% load. Reports average and
// tail FCT per size (normalized to ACC), plus the leaf queue (7c) and ToR
// throughput (7d).
func runFig7(o Options) []*Table {
	sizes := []int64{simtime.KB, 10 * simtime.KB, 100 * simtime.KB, simtime.MB, 10 * simtime.MB}
	sizeNames := []string{"1KB", "10KB", "100KB", "1MB", "10MB"}
	loads := []float64{0.2, 0.6}
	policies := []Policy{accPolicy(), secn1(), secn2(25)}

	var tables []*Table
	queueTbl := &Table{
		Title: "Figure 7(c): leaf queue length at 60% load",
		Cols:  []string{"policy", "avg queue(KB)", "std dev(KB)"},
	}
	tputTbl := &Table{
		Title: "Figure 7(d): ToR switch throughput at 60% load",
		Cols:  []string{"policy", "throughput(Gbps)"},
	}

	for _, load := range loads {
		o.label = fmt.Sprintf("load %g", load)
		type run struct {
			fct           [][3]float64 // by size: avg, p99, p99.9
			q, qStd, tput float64      // at 60% load
		}
		runs := runArms(o, star(3, topo.DefaultConfig()), 0, policies, func(a arm) run {
			net, fab := a.net, a.fab
			var col stats.FCTCollector
			start := rdmaStarter(net, 25*simtime.Gbps, &col)
			recv := fab.Hosts[2]

			// Random messages from both senders, Poisson at the target load
			// of the receiver's 25G link.
			rng := rand.New(rand.NewSource(o.Seed + 77))
			var meanSize float64
			for _, s := range sizes {
				meanSize += float64(s)
			}
			meanSize /= float64(len(sizes))
			lambda := load * 25e9 / 8 / meanSize
			var arrive func()
			arrive = func() {
				src := fab.Hosts[rng.Intn(2)]
				size := sizes[rng.Intn(len(sizes))]
				start(src, recv, size, nil)
				net.Q.After(simtime.Duration(rng.ExpFloat64()/lambda*1e9), arrive)
			}
			net.Q.After(0, arrive)

			hot := fab.Leaves[0].Ports[2]
			hq := hot.Queues[0]
			var qmon *stats.QueueMonitor
			if load == 0.6 {
				qmon = stats.MonitorQueue(net, hq, 20*simtime.Microsecond)
			}
			dur := o.dur(20 * simtime.Millisecond)
			net.RunUntil(simtime.Time(dur))

			var r run
			for _, sz := range sizes {
				s := stats.Summarize(col.Filter(func(r stats.FlowRecord) bool { return r.Size == sz }))
				r.fct = append(r.fct, [3]float64{float64(s.Avg), float64(s.P99), float64(s.P999)})
			}
			if qmon != nil {
				r.q, r.qStd, r.tput = qmon.Series.Avg(), qmon.Series.Std(), gbps(hot.TxBytesTotal, dur)
				qmon.Stop()
			}
			return r
		})
		t := &Table{
			Title: fmt.Sprintf("Figure 7: FCT at %.0f%% load (normalized to ACC)", load*100),
			Cols:  []string{"size", "metric", "ACC", "SECN1", "SECN2"},
		}
		for si := range sizes {
			if runs[0].fct[si][0] == 0 {
				continue
			}
			for mi, metric := range []string{"avg", "p99", "p99.9"} {
				xs := make([]float64, len(runs))
				for pi, r := range runs {
					xs[pi] = r.fct[si][mi]
				}
				t.addRatios(xs, 0, sizeNames[si], metric)
			}
		}
		tables = append(tables, t)
		if load == 0.6 {
			for pi, r := range runs {
				queueTbl.AddRow(policies[pi].Name, kb(r.q), kb(r.qStd))
				tputTbl.AddRow(policies[pi].Name, r.tput)
			}
		}
	}
	tables = append(tables, queueTbl, tputTbl)
	return tables
}
