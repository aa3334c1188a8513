package exp

import (
	"fmt"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
	"github.com/accnet/acc/internal/workload"
)

func init() {
	register("fig9", "distributed storage IOPS per Table-1 workload and IO depth, ACC vs vendor SECN", runFig9)
	register("fig10", "distributed training speed (AlexNet, ResNet-50) + PFC/latency, ACC vs SECN1/2", runFig10)
	register("table1", "traffic models of the distributed storage system (input table)", runTable1)
}

// runTable1 prints the Table-1 storage models encoded in the workload
// package.
func runTable1(o Options) []*Table {
	t := &Table{
		Title: "Table 1: traffic loads in distributed storage system",
		Cols:  []string{"traffic pattern", "read-write ratio", "block size"},
	}
	for _, m := range workload.Table1() {
		t.AddRow(m.Name,
			fmtRatio(m.ReadRatio),
			fmtBlockRange(m.BlockMin, m.BlockMax))
	}
	return []*Table{t}
}

func fmtRatio(read float64) string {
	r := int(read*10 + 0.5)
	return fmt.Sprintf("%d:%d", r, 10-r)
}

func fmtBlockRange(lo, hi int64) string {
	f := func(b int64) string {
		switch {
		case b >= simtime.MB:
			return fmt.Sprintf("%dMB", b/simtime.MB)
		case b >= simtime.KB:
			return fmt.Sprintf("%dKB", b/simtime.KB)
		default:
			return fmt.Sprintf("%dB", b)
		}
	}
	if lo == hi {
		return f(lo)
	}
	return f(lo) + "-" + f(hi)
}

// runFig9 reproduces Figure 9: the §5.3.1 storage macro-benchmark —
// 18 compute + 6 storage nodes (3:1), closed-loop IO at increasing IO depth,
// comparing ACC against the vendor-suggested static setting
// (Kmin=30KB, Kmax=270KB, Pmax=10%).
func runFig9(o Options) []*Table {
	depths := []int{16, 64, 128}
	policies := []Policy{vendor(), accPolicy()}
	var tables []*Table
	for _, model := range workload.Table1() {
		t := &Table{
			Title: "Figure 9: " + model.Name + " IOPS (normalized to SECN at depth 16)",
			Cols:  []string{"IO depth", "SECN", "ACC", "ACC gain"},
		}
		var base float64
		for _, depth := range depths {
			o.label = fmt.Sprintf("%s IO depth %d", model.Name, depth)
			iops := runArms(o, testbed, 1, policies, func(a arm) float64 {
				cluster := workload.RunStorage(a.net, a.seeds[0], workload.StorageConfig{
					Compute: a.fab.Hosts[:18],
					Storage: a.fab.Hosts[18:],
					Model:   model,
					IODepth: depth,
					Start:   rdmaStarter(a.net, 25*simtime.Gbps, nil),
				})
				a.net.RunUntil(simtime.Time(o.dur(8 * simtime.Millisecond)))
				cluster.Stop()
				return cluster.IOPS()
			})
			if base == 0 {
				base = iops[0]
			}
			t.AddRow(depth, ratio(iops[0], base), ratio(iops[1], base), ratio(iops[1], iops[0]))
		}
		t.Notes = append(t.Notes, "paper: ACC improves IOPS up to 30%, gap grows with IO depth")
		tables = append(tables, t)
	}
	return tables
}

// runFig10 reproduces Figure 10: the §5.3.2 GPU-training benchmark — 7
// workers + 1 parameter server training AlexNet and ResNet-50; training
// speed (images/sec) plus the PFC/latency companion panel.
func runFig10(o Options) []*Table {
	speed := &Table{
		Title: "Figure 10(a): training speed (normalized to SECN1)",
		Cols:  []string{"model", "SECN1", "SECN2", "ACC"},
	}
	panel := &Table{
		Title: "Figure 10(b): PFC pauses and queue delay with ResNet-50",
		Cols:  []string{"policy", "PFC pause events", "avg queue(KB)"},
	}
	policies := []Policy{secn1(), secn2(25), accPolicy()}
	for _, model := range []workload.TrainingModel{workload.AlexNet(), workload.ResNet50()} {
		o.label = model.Name
		type run struct {
			speed, avgQ float64
			pauses      uint64
		}
		runs := runArms(o, star(8, topo.DefaultConfig()), 0, policies, func(a arm) run {
			job := workload.RunTraining(a.net, workload.TrainingConfig{
				Workers:     a.fab.Hosts[:7],
				PS:          a.fab.Hosts[7],
				Model:       model,
				ComputeTime: 200 * simtime.Microsecond,
				Start:       rdmaStarter(a.net, 25*simtime.Gbps, nil),
				ScaleBytes:  100, // 2.4MB / 1MB per transfer after scaling
			})
			dur := o.dur(40 * simtime.Millisecond)
			a.net.RunUntil(simtime.Time(dur))
			job.Stop()

			var pauses uint64
			var qsum, qn float64
			for _, h := range a.fab.Hosts {
				pauses += h.Port.PauseRxEvents
			}
			for _, port := range a.fab.Leaves[0].Ports {
				for _, q := range port.Queues {
					qsum += q.ByteTimeIntegral() / dur.Seconds()
					qn++
				}
			}
			return run{job.ImagesPerSec(), qsum / qn, pauses}
		})
		speeds := make([]float64, len(runs))
		for pi, r := range runs {
			speeds[pi] = r.speed
			if model.Name == "ResNet-50" {
				panel.AddRow(policies[pi].Name, r.pauses, kb(r.avgQ))
			}
		}
		speed.addRatios(speeds, 0, model.Name)
	}
	speed.Notes = append(speed.Notes, "paper: ACC up to 7%/12% faster than SECN1/SECN2 on ResNet-50")
	return []*Table{speed, panel}
}
