// Storage example: the paper's §5.3.1 macro-benchmark in miniature — a
// distributed SSD-storage cluster (compute and storage nodes in a 3:1
// ratio) running the Table-1 traffic models, measuring IOPS under the
// vendor's static ECN suggestion versus ACC.
//
//	go run ./examples/storage
package main

import (
	"fmt"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
	"github.com/accnet/acc/internal/workload"
)

func runModel(model workload.StorageModel, ioDepth int, useACC bool) float64 {
	net := netsim.New(7)
	fab := topo.TestbedClos(net, topo.DefaultConfig())
	seed := net.Rng.Int63() // before ACC draws there, so both arms run the same IOs
	if useACC {
		acc.NewSystem(net, fab.Switches(), nil, acc.DefaultSystemConfig())
	} else {
		for _, sw := range fab.Switches() {
			sw.SetRED(red.VendorDefault())
		}
	}
	params := dcqcn.DefaultParams(25 * simtime.Gbps)
	cluster := workload.RunStorage(net, seed, workload.StorageConfig{
		Compute: fab.Hosts[:18],
		Storage: fab.Hosts[18:],
		Model:   model,
		IODepth: ioDepth,
		Start: func(src, dst *netsim.Host, size int64, onDone func()) {
			dcqcn.Start(net, src, dst, size, params, func(*dcqcn.Flow) {
				if onDone != nil {
					onDone()
				}
			})
		},
		Replicate: true,
	})
	net.RunUntil(simtime.Time(10 * simtime.Millisecond))
	cluster.Stop()
	return cluster.IOPS()
}

func main() {
	fmt.Println("distributed storage IOPS: 18 compute + 6 storage nodes, IO depth 64")
	fmt.Printf("%-16s %12s %12s %8s\n", "workload", "vendor SECN", "ACC", "gain")
	for _, model := range workload.Table1() {
		secn := runModel(model, 64, false)
		accv := runModel(model, 64, true)
		fmt.Printf("%-16s %12.0f %12.0f %+7.1f%%\n", model.Name, secn, accv, (accv/secn-1)*100)
	}
}
