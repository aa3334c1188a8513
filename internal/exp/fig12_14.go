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

// fctRow summarizes one policy run for the fig12/13 tables.
type fctRow struct {
	overall  stats.FCTSummary
	mice     stats.FCTSummary
	elephant stats.FCTSummary
}

// runLoadScenario drives a Poisson workload over the sim fabric under a
// policy, drains to twice its duration, and returns size-bucketed FCT
// summaries.
func runLoadScenario(o Options, p Policy, sizes workload.CDF, load float64, dur simtime.Duration) fctRow {
	sc := poisson{fabric: simFabric(o), sizes: sizes, load: load, dur: dur, until: 2 * dur}
	col := stats.FCTCollector{Records: sc.run(o, p)}
	return fctRow{
		overall:  stats.Summarize(col.Records),
		mice:     stats.Summarize(col.Mice()),
		elephant: stats.Summarize(col.Elephants()),
	}
}

// runFig12 reproduces Figure 12: WebSearch workload at rising load; overall
// average FCT, mice average and p99, elephant average — ACC vs SECN1/SECN2,
// normalized to ACC.
func runFig12(o Options) []*Table {
	loads := []float64{0.6, 0.7, 0.8, 0.9}
	policies := []Policy{accPolicy(), secn1(), secn2(25)}
	dur := o.dur(6 * simtime.Millisecond)

	metrics := []struct {
		name string
		get  func(fctRow) float64
	}{
		{"overall avg", func(r fctRow) float64 { return float64(r.overall.Avg) }},
		{"mice (0,100KB] avg", func(r fctRow) float64 { return float64(r.mice.Avg) }},
		{"mice (0,100KB] p99", func(r fctRow) float64 { return float64(r.mice.P99) }},
		{"elephant [10MB,inf) avg", func(r fctRow) float64 { return float64(r.elephant.Avg) }},
	}
	tables := make([]*Table, len(metrics))
	for i, m := range metrics {
		tables[i] = &Table{
			Title: "Figure 12: WebSearch " + m.name + " FCT (normalized to ACC)",
			Cols:  []string{"load", "ACC", "SECN1", "SECN2"},
		}
	}
	for _, load := range loads {
		load := load
		rows := make([]fctRow, len(policies))
		forEachParallel(len(policies), func(pi int) {
			rows[pi] = runLoadScenario(o, policies[pi], workload.WebSearch(), load, dur)
		})
		for mi, m := range metrics {
			base := m.get(rows[0])
			tables[mi].AddRow(fmt.Sprintf("%.0f%%", load*100),
				ratio(base, base), ratio(m.get(rows[1]), base), ratio(m.get(rows[2]), base))
		}
	}
	tables[0].Notes = append(tables[0].Notes,
		"paper: ACC 5.8% below SECN1 and 16.6% below SECN2 on overall avg FCT at 90% load")
	return tables
}

// runFig13 reproduces Figure 13: WebSearch and DataMining under random load
// in {60..90%} with random src/dst, averaged over several runs.
func runFig13(o Options) []*Table {
	policies := []Policy{accPolicy(), secn1(), secn2(25)}
	runs := 3
	dur := o.dur(6 * simtime.Millisecond)
	loads := []float64{0.6, 0.7, 0.8, 0.9}

	var tables []*Table
	for _, wl := range []workload.CDF{workload.WebSearch(), workload.DataMining()} {
		t := &Table{
			Title: "Figure 13: " + wl.Name + " FCT across random loads (normalized to ACC)",
			Cols:  []string{"metric", "ACC", "SECN1", "SECN2"},
		}
		agg := make([]fctRow, len(policies))
		sums := make([][4]float64, len(policies))
		for r := 0; r < runs; r++ {
			load := loads[r%len(loads)]
			ro := o
			ro.Seed = o.Seed + int64(r*100)
			forEachParallel(len(policies), func(pi int) {
				agg[pi] = runLoadScenario(ro, policies[pi], wl, load, dur)
			})
			for pi := range policies {
				sums[pi][0] += float64(agg[pi].overall.Avg)
				sums[pi][1] += float64(agg[pi].mice.Avg)
				sums[pi][2] += float64(agg[pi].mice.P99)
				sums[pi][3] += float64(agg[pi].elephant.Avg)
			}
		}
		for mi, name := range []string{"overall avg", "mice avg", "mice p99", "elephant avg"} {
			t.AddRow(name, ratio(sums[0][mi], sums[0][mi]), ratio(sums[1][mi], sums[0][mi]), ratio(sums[2][mi], sums[0][mi]))
		}
		tables = append(tables, t)
	}
	return tables
}

// runFig14 reproduces Figure 14: the 96-host fabric comparing the deployed
// distributed design (D-ACC) against the centralized baseline (C-ACC) and
// the static settings.
func runFig14(o Options) []*Table {
	t := &Table{
		Title: "Figure 14: distributed vs centralized design (normalized to D-ACC)",
		Cols:  []string{"policy", "avg FCT", "p99 FCT"},
	}
	policies := []Policy{
		{Name: "D-ACC", Kind: DACC},
		{Name: "C-ACC", Kind: CACC},
		secn1(),
		secn2(25),
	}
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
	var base stats.FCTSummary
	for pi, p := range policies {
		s := stats.Summarize(sc.run(o, p))
		if pi == 0 {
			base = s
		}
		t.addFCT(p.Name, s, base)
	}
	t.Notes = append(t.Notes,
		"paper: C-ACC beats static ECN but trails D-ACC (uniform per-layer settings mis-fit during congestion)")
	return []*Table{t}
}
