package exp

import (
	"fmt"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/topo"
	"github.com/accnet/acc/internal/workload"
)

func init() {
	register("fig12", "large-scale sim, WebSearch: overall/mice/elephant FCT vs load", runFig12)
	register("fig13", "temporally & spatially heterogeneous traffic: FCT stats across workloads", runFig13)
	register("fig14", "distributed D-ACC vs centralized C-ACC vs static ECN", runFig14)
}

// simFabric builds the large-simulation fabric, scaled down by default
// (Scale>=4 restores the paper's 288-host 12x6 fabric).
func simFabric(o Options) func(*netsim.Network) *topo.Fabric {
	return func(net *netsim.Network) *topo.Fabric {
		cfg := topo.DefaultConfig()
		if o.Scale >= 4 {
			return topo.LargeSim(net, cfg)
		}
		// 48 hosts: 6 leaves x 8 hosts, 3 spines.
		return topo.LeafSpine(net, 6, 8, 3, cfg)
	}
}

// loadRows runs the arms over the sim fabric at one load, arrivals for a
// scaled 6 ms and drained to twice that, and returns each arm's overall
// avg, mice avg, mice p99 and elephant avg FCT: the four metrics fig12 and
// fig13 report.
func loadRows(o Options, sizes workload.CDF, load float64, arms []Policy) [][4]float64 {
	dur := o.dur(6 * simtime.Millisecond)
	sc := poisson{fabric: simFabric(o), sizes: sizes, load: load, dur: dur, until: 2 * dur}
	runs := sc.compare(o, arms...)
	rows := make([][4]float64, len(runs))
	for i, r := range runs {
		col := stats.FCTCollector{Records: r.flows}
		mice := stats.Summarize(col.Mice())
		rows[i] = [4]float64{float64(stats.Summarize(r.flows).Avg), float64(mice.Avg), float64(mice.P99),
			float64(stats.Summarize(col.Elephants()).Avg)}
	}
	return rows
}

// runFig12 reproduces Figure 12: WebSearch workload at rising load; overall
// average FCT, mice average and p99, elephant average — ACC vs SECN1/SECN2,
// normalized to ACC.
func runFig12(o Options) []*Table {
	arms := []Policy{accPolicy(), secn1(), secn2(25)}
	metrics := []string{"overall avg", "mice (0,100KB] avg", "mice (0,100KB] p99", "elephant [10MB,inf) avg"}
	tables := make([]*Table, len(metrics))
	for i, m := range metrics {
		tables[i] = &Table{
			Title: "Figure 12: WebSearch " + m + " FCT (normalized to ACC)",
			Cols:  []string{"load", "ACC", "SECN1", "SECN2"},
		}
	}
	for _, load := range []float64{0.6, 0.7, 0.8, 0.9} {
		rows := loadRows(o, workload.WebSearch(), load, arms)
		for mi, t := range tables {
			t.addRatios([]float64{rows[0][mi], rows[1][mi], rows[2][mi]}, 0, fmt.Sprintf("%.0f%%", load*100))
		}
	}
	tables[0].Notes = append(tables[0].Notes,
		"paper: ACC 5.8% below SECN1 and 16.6% below SECN2 on overall avg FCT at 90% load")
	return tables
}

// runFig13 reproduces Figure 13: WebSearch and DataMining under random load
// in {60..90%} with random src/dst, averaged over several runs.
func runFig13(o Options) []*Table {
	arms := []Policy{accPolicy(), secn1(), secn2(25)}
	loads := []float64{0.6, 0.7, 0.8, 0.9}
	var tables []*Table
	for _, wl := range []workload.CDF{workload.WebSearch(), workload.DataMining()} {
		t := &Table{
			Title: "Figure 13: " + wl.Name + " FCT across random loads (normalized to ACC)",
			Cols:  []string{"metric", "ACC", "SECN1", "SECN2"},
		}
		var sums [4][3]float64 // metric, arm
		for r := 0; r < 3; r++ {
			ro := o
			ro.Seed = o.Seed + int64(r*100)
			for ai, row := range loadRows(ro, wl, loads[r%len(loads)], arms) {
				for mi, v := range row {
					sums[mi][ai] += v
				}
			}
		}
		for mi, name := range []string{"overall avg", "mice avg", "mice p99", "elephant avg"} {
			t.addRatios(sums[mi][:], 0, name)
		}
		tables = append(tables, t)
	}
	return tables
}

// runFig14 reproduces Figure 14: the 96-host fabric comparing the deployed
// distributed design (D-ACC) against the centralized baseline (C-ACC) and
// the static settings.
func runFig14(o Options) []*Table {
	dur := o.dur(8 * simtime.Millisecond)
	hostsPerLeaf := 8 // scaled: 32 hosts
	if o.Scale >= 2 {
		hostsPerLeaf = 24 // paper's 96 hosts
	}
	sc := poisson{
		fabric: func(net *netsim.Network) *topo.Fabric {
			return topo.LeafSpine(net, 4, hostsPerLeaf, 2, topo.DefaultConfig())
		},
		sizes: workload.WebSearch(), load: 0.7, dur: dur, until: 2 * dur,
	}
	return sc.fctTable(o, "Figure 14: distributed vs centralized design (normalized to D-ACC)", "policy",
		"paper: C-ACC beats static ECN but trails D-ACC (uniform per-layer settings mis-fit during congestion)", 0,
		Policy{Name: "D-ACC", Kind: DACC}, Policy{Name: "C-ACC", Kind: CACC}, secn1(), secn2(25))
}
