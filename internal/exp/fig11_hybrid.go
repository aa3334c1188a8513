package exp

import (
	"fmt"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
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
	dur := o.dur(8 * simtime.Millisecond)
	sc := poisson{
		fabric: func(net *netsim.Network) *topo.Fabric { return topo.LeafSpine(net, 4, 8, 2, topo.DefaultConfig()) },
		sizes:  workload.WebSearch(), load: 0.7, dur: dur, until: 2 * dur,
	}
	return sc.fctTable(o, "§6 extension: hybrid design (normalized to D-ACC)", "policy",
		"paper §6: hybrid keeps D-ACC's microsecond actuation while a controller owns training — a proposed refinement, not evaluated in the paper", 0,
		Policy{Name: "D-ACC", Kind: DACC}, Policy{Name: "Hybrid", Kind: HybridACC}, secn1())
}
