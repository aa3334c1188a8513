package exp

import (
	"fmt"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/topo"
	"github.com/accnet/acc/internal/workload"
)

func init() {
	register("fig11", "traffic distributions used in the large-scale simulation (input CDFs)", runFig11)
	register("hybrid", "§6 extension: hybrid design (local inference, centralized training) vs D-ACC", runHybrid)
}

// runFig11 renders Figure 11: the WebSearch and DataMining flow-size CDFs
// driving the §5.4 simulations.
func runFig11(o Options) []*Table {
	var tables []*Table
	for _, c := range []workload.CDF{workload.WebSearch(), workload.DataMining()} {
		t := &Table{
			Title: "Figure 11: " + c.Name + " flow-size CDF",
			Cols:  []string{"flow size", "P(size <= x)"},
		}
		for _, pt := range c.Points {
			t.AddRow(fmtBytes(pt.Bytes), pt.Prob)
		}
		t.Notes = append(t.Notes, fmt.Sprintf("mean flow size %.0f bytes", c.Mean()))
		tables = append(tables, t)
	}
	return tables
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.3gGB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.3gMB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.3gKB", b/1e3)
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// runHybrid evaluates the §6 future-work proposal: distributed inference
// with centralized training, against fully distributed D-ACC and static
// SECN1, on the fig14 fabric and workload.
func runHybrid(o Options) []*Table {
	t := &Table{
		Title: "§6 extension: hybrid design (normalized to D-ACC)",
		Cols:  []string{"policy", "avg FCT", "p99 FCT"},
	}
	dur := o.dur(8 * simtime.Millisecond)
	run := func(kind string) stats.FCTSummary {
		net := newNet(o, o.Seed)
		fab := topo.LeafSpine(net, 4, 8, 2, topo.DefaultConfig())
		var stop func()
		switch kind {
		case "D-ACC":
			stop = deploy(net, fab, accPolicy(), o)
		case "Hybrid":
			h := acc.NewHybrid(net, fab.Switches(), o.model(), acc.DefaultHybridConfig())
			h.SetEpsilon(0.01)
			stop = h.Stop
		default:
			stop = deploy(net, fab, secn1(), o)
		}
		var col stats.FCTCollector
		gen := workload.StartPoisson(net, workload.PoissonConfig{
			Hosts:  fab.Hosts,
			Sizes:  workload.WebSearch(),
			Load:   0.7,
			HostBW: 25 * simtime.Gbps,
			Start:  rdmaStarter(net, 25*simtime.Gbps, &col),
		})
		net.RunUntil(simtime.Time(dur))
		gen.Stop()
		net.RunUntil(simtime.Time(2 * dur))
		stop()
		return stats.Summarize(col.Records)
	}
	base := run("D-ACC")
	hy := run("Hybrid")
	st := run("SECN1")
	t.AddRow("D-ACC", 1.0, 1.0)
	t.AddRow("Hybrid", normalize(float64(hy.Avg), float64(base.Avg)), normalize(float64(hy.P99), float64(base.P99)))
	t.AddRow("SECN1", normalize(float64(st.Avg), float64(base.Avg)), normalize(float64(st.P99), float64(base.P99)))
	t.Notes = append(t.Notes,
		"paper §6: hybrid keeps D-ACC's microsecond actuation while a controller owns training — a proposed refinement, not evaluated in the paper")
	return []*Table{t}
}
