// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks: one Benchmark per table/figure plus the
// DESIGN.md ablations. Run them all with
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment from internal/exp
// and reports the headline quantity as a custom metric alongside the usual
// time/op. The rendered tables are printed once (first iteration) so a
// bench run doubles as a reproduction log.
package bench

import (
	"strconv"
	"sync"
	"testing"

	"github.com/accnet/acc/internal/exp"
)

// benchOpts returns deterministic, laptop-scale options.
func benchOpts() exp.Options {
	return exp.Options{Seed: 1, Scale: 1}
}

var printOnce sync.Map

// runExp executes one registered experiment per benchmark iteration,
// printing the tables the first time.
func runExp(b *testing.B, id string, o exp.Options) []*exp.Table {
	b.Helper()
	var tables []*exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = exp.Run(id, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, done := printOnce.LoadOrStore(id, true); !done && testing.Verbose() {
		for _, t := range tables {
			b.Log("\n" + t.String())
		}
	}
	return tables
}

// metric extracts a numeric cell (row r, column c) from a table, for
// b.ReportMetric; non-numeric cells return 0.
func metric(t *exp.Table, r, c int) float64 {
	if r >= len(t.Rows) || c >= len(t.Rows[r]) {
		return 0
	}
	v, err := strconv.ParseFloat(t.Rows[r][c], 64)
	if err != nil {
		return 0
	}
	return v
}

func BenchmarkFig1(b *testing.B) {
	tables := runExp(b, "fig1", benchOpts())
	// Report the queue-depth span across the threshold sweep for case (a).
	lo, hi := metric(tables[0], 0, 2), metric(tables[0], len(tables[0].Rows)-1, 2)
	b.ReportMetric(hi/lo, "queue-span(maxK/minK)")
}

func BenchmarkFig2(b *testing.B) {
	tables := runExp(b, "fig2", benchOpts())
	// SECN1-vs-SECN2 ranking flip across scenarios (paper's point).
	s1Mining := metric(tables[0], 0, 2)
	s1Search := metric(tables[0], 1, 2)
	b.ReportMetric(s1Mining, "secn1-fct-mining")
	b.ReportMetric(s1Search, "secn1-fct-search")
}

func BenchmarkFig6(b *testing.B) {
	tables := runExp(b, "fig6", benchOpts())
	sum := tables[1]
	b.ReportMetric(metric(sum, 0, 2)/metric(sum, 1, 2), "acc-vs-secn1-utilization")
}

func BenchmarkFig7(b *testing.B) {
	tables := runExp(b, "fig7", benchOpts())
	// Mean normalized FCT of SECN2 vs ACC at 60% load across rows.
	t := tables[1]
	var sum float64
	var n int
	for r := range t.Rows {
		if v := metric(t, r, 4); v > 0 {
			sum += v
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "secn2-fct-over-acc@60%")
	}
}

func BenchmarkFig8(b *testing.B) {
	tables := runExp(b, "fig8", benchOpts())
	b.ReportMetric(metric(tables[0], 1, 2), "acc-rdma-share-2to1")
	b.ReportMetric(metric(tables[0], 3, 2), "acc-rdma-share-7to1")
}

func BenchmarkTable1(b *testing.B) {
	tables := runExp(b, "table1", benchOpts())
	b.ReportMetric(float64(len(tables[0].Rows)), "models")
}

func BenchmarkFig9(b *testing.B) {
	tables := runExp(b, "fig9", benchOpts())
	// Average ACC IOPS gain across workloads at the deepest IO depth.
	var gain float64
	for _, t := range tables {
		gain += metric(t, len(t.Rows)-1, 3)
	}
	b.ReportMetric(gain/float64(len(tables)), "acc-iops-gain@depth128")
}

func BenchmarkFig10(b *testing.B) {
	tables := runExp(b, "fig10", benchOpts())
	b.ReportMetric(metric(tables[0], 1, 3), "acc-speed-vs-secn1-resnet")
}

func BenchmarkFig11CDFs(b *testing.B) {
	tables := runExp(b, "fig11", benchOpts())
	b.ReportMetric(float64(len(tables[0].Rows)), "websearch-knots")
	b.ReportMetric(float64(len(tables[1].Rows)), "datamining-knots")
}

func BenchmarkFig12(b *testing.B) {
	tables := runExp(b, "fig12", benchOpts())
	// SECN2 overall avg FCT vs ACC at 90% load.
	t := tables[0]
	b.ReportMetric(metric(t, len(t.Rows)-1, 3), "secn2-overall-fct-over-acc@90%")
}

func BenchmarkFig13(b *testing.B) {
	tables := runExp(b, "fig13", benchOpts())
	b.ReportMetric(metric(tables[0], 2, 2), "secn1-mice-p99-over-acc(websearch)")
}

func BenchmarkFig14(b *testing.B) {
	tables := runExp(b, "fig14", benchOpts())
	b.ReportMetric(metric(tables[0], 1, 1), "cacc-fct-over-dacc")
}

func BenchmarkFig15(b *testing.B) {
	tables := runExp(b, "fig15", benchOpts())
	b.ReportMetric(float64(len(tables[0].Rows)), "trace-points")
}

func BenchmarkFig16(b *testing.B) {
	tables := runExp(b, "fig16", benchOpts())
	b.ReportMetric(metric(tables[0], 1, 1), "acc-fct-over-secn1(unseen-switch)")
	b.ReportMetric(metric(tables[0], 2, 1), "acc-fct-over-secn1(return)")
}

func BenchmarkFig17(b *testing.B) {
	tables := runExp(b, "fig17", benchOpts())
	// Reward separation of small queues: step minus linear at 320KB.
	spread := tables[0]
	b.ReportMetric(metric(spread, 0, 1)-metric(spread, 2, 1), "linear-reward-spread(20KB..320KB)")
	b.ReportMetric(metric(spread, 0, 2)-metric(spread, 2, 2), "step-reward-spread(20KB..320KB)")
}

func BenchmarkResources(b *testing.B) {
	tables := runExp(b, "resources", benchOpts())
	b.ReportMetric(metric(tables[0], 1, 1), "nn-params")
}

// ----- DESIGN.md ablation benches -----

func BenchmarkAblationHistoryK(b *testing.B) {
	tables := runExp(b, "ablation-history", benchOpts())
	b.ReportMetric(metric(tables[0], 0, 1), "k1-fct-over-k3")
	b.ReportMetric(metric(tables[0], 2, 1), "k5-fct-over-k3")
}

func BenchmarkAblationDQNvsDDQN(b *testing.B) {
	tables := runExp(b, "ablation-ddqn", benchOpts())
	b.ReportMetric(metric(tables[0], 1, 1), "dqn-fct-over-ddqn")
}

func BenchmarkAblationGlobalReplay(b *testing.B) {
	tables := runExp(b, "ablation-exchange", benchOpts())
	b.ReportMetric(metric(tables[0], 1, 1), "noexchange-fct-over-exchange")
}

func BenchmarkAblationBusyIdle(b *testing.B) {
	tables := runExp(b, "ablation-busyidle", benchOpts())
	t := tables[0]
	// Saved fraction is reported as a percentage string; re-derive it.
	inf := metric(t, 0, 1)
	skip := metric(t, 0, 2)
	if inf+skip > 0 {
		b.ReportMetric(skip/(inf+skip), "inference-savings-frac")
	}
}

func BenchmarkAblationActionPeriod(b *testing.B) {
	tables := runExp(b, "ablation-period", benchOpts())
	t := tables[0]
	b.ReportMetric(metric(t, len(t.Rows)-1, 1), "slowest-dt-fct-over-100us")
}

func BenchmarkAblationHillclimb(b *testing.B) {
	tables := runExp(b, "ablation-hillclimb", benchOpts())
	b.ReportMetric(metric(tables[0], 1, 1), "hillclimb-fct-over-acc")
}

func BenchmarkHybridDesign(b *testing.B) {
	tables := runExp(b, "hybrid", benchOpts())
	b.ReportMetric(metric(tables[0], 1, 1), "hybrid-fct-over-dacc")
	b.ReportMetric(metric(tables[0], 2, 1), "secn1-fct-over-dacc")
}

func BenchmarkStressFailure(b *testing.B) {
	tables := runExp(b, "stress-failure", benchOpts())
	b.ReportMetric(metric(tables[0], 1, 1), "secn1-fct-over-acc(failure)")
}
