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
	register("fig8", "RDMA/TCP weighted fair sharing (70/30 DWRR): throughput ratio, ACC vs SECN", runFig8)
}

// runFig8 reproduces Figure 8 (§5.2 "Fairness between RDMA and TCP
// Traffic"): 8 hosts with 100G NICs on one switch; DWRR allocates 70% to
// the RDMA class and 30% to TCP; 2 or 7 senders push both classes to one
// receiver. With a static ECN setting, TCP's slower control loop grabs more
// than its share; ACC restores the split.
func runFig8(o Options) []*Table {
	bw := 100 * simtime.Gbps
	ratioTbl := &Table{
		Title: "Figure 8: average throughput share of RDMA and TCP (target 70%/30%)",
		Cols:  []string{"incast", "policy", "RDMA share", "TCP share"},
	}
	latTbl := &Table{
		Title: "Figure 8 (companion): RDMA-queue delay proxy",
		Cols:  []string{"incast", "policy", "avg RDMA queue(KB)", "p99 RDMA queue(KB)"},
	}
	for _, senders := range []int{2, 7} {
		accP := accPolicy()
		accP.TunePrios = []int{3} // only the RDMA class is auto-tuned
		for _, p := range []Policy{vendor(), accP} {
			net := newNet(o, o.Seed)
			cfg := topo.DefaultConfig()
			cfg.HostBW = bw
			cfg.FabricBW = bw
			// A tight shared buffer at 100G makes the classes contend the
			// way the paper describes: TCP occupancy eats PFC headroom.
			cfg.Switch.BufferBytes = 9 * simtime.MB
			weights := make([]int, netsim.NumPrio)
			weights[0], weights[3] = 3, 7 // TCP class 0: 30%, RDMA class 3: 70%
			cfg.QueueWeights = weights
			fab := topo.Star(net, 8, cfg)
			stop, _ := deploy(net, fab, p, o)
			recv := fab.Hosts[7]

			rdma := rdmaStarter(net, bw, nil)
			// The paper's problem scenario: drop-tail TCP "becomes more greedy
			// and may occupy the whole buffer" (§5.2).
			tcps := tcpStarter(net, nil, false)

			// Each sender runs a random 1..32 concurrent RDMA QPs (renewed
			// on completion) plus persistent TCP flows.
			jitter := func() simtime.Duration { return workload.ExpJitter(net.Rng, 20*simtime.Microsecond) }
			for _, src := range fab.Hosts[:senders] {
				renew(net, rdma, src, recv, 4*simtime.MB, 1+net.Rng.Intn(32), jitter, nil)
				renew(net, tcps, src, recv, 4*simtime.MB, 4, jitter, nil)
			}

			hot := fab.Leaves[0].Ports[7]
			rq := hot.Queue(3)
			tq := hot.Queue(0)
			qmon := stats.MonitorQueue(net, rq, 20*simtime.Microsecond)
			// ACC adapts online to this out-of-distribution scenario
			// (weighted queues); give it a learning warmup before measuring.
			warm := o.dur(8 * simtime.Millisecond)
			meas := o.dur(12 * simtime.Millisecond)
			net.RunUntil(simtime.Time(warm))
			r0, t0 := rq.TxBytes, tq.TxBytes
			net.RunUntil(simtime.Time(warm + meas))
			stop()
			qmon.Stop()

			rb := float64(rq.TxBytes - r0)
			tb := float64(tq.TxBytes - t0)
			total := rb + tb
			if total == 0 {
				total = 1
			}
			ratioTbl.AddRow(fmt.Sprintf("%d:1", senders), p.Name, rb/total, tb/total)
			latTbl.AddRow(fmt.Sprintf("%d:1", senders), p.Name, kb(qmon.Series.Avg()), kb(qmon.Series.Quantile(0.99)))
		}
	}
	ratioTbl.Notes = append(ratioTbl.Notes,
		"paper: with static ECN, TCP takes 10-20% more than its 30% allocation; ACC restores ~70/30")
	return []*Table{ratioTbl, latTbl}
}
