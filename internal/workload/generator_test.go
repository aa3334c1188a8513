package workload

import (
	"testing"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

func dcqcnStarter(net *netsim.Network, bw simtime.Rate) StartFlowFunc {
	p := dcqcn.DefaultParams(bw)
	return func(src, dst *netsim.Host, size int64, onDone func()) {
		dcqcn.Start(net, src, dst, size, p, func(*dcqcn.Flow) {
			if onDone != nil {
				onDone()
			}
		})
	}
}

func TestPoissonLoadAccuracy(t *testing.T) {
	net := netsim.New(1)
	fab := topo.Star(net, 8, topo.DefaultConfig())
	gen := StartPoisson(net, net.Rng.Int63(), PoissonConfig{
		Hosts:  fab.Hosts,
		Sizes:  WebSearch(),
		Load:   0.5,
		HostBW: 25 * simtime.Gbps,
		Start:  dcqcnStarter(net, 25*simtime.Gbps),
	})
	const dur = 20 * simtime.Millisecond
	net.RunUntil(simtime.Time(dur))
	gen.Stop()
	// Offered bytes should approximate load × n × BW × T / 8.
	want := 0.5 * 8 * 25e9 / 8 * dur.Seconds()
	got := float64(gen.Bytes)
	if got < 0.6*want || got > 1.4*want {
		t.Fatalf("offered %0.f bytes, want ~%.0f (50%% load)", got, want)
	}
	if gen.Started < 50 {
		t.Fatalf("only %d flows in %v", gen.Started, dur)
	}
}

func TestPoissonNeverSelfPair(t *testing.T) {
	net := netsim.New(3)
	fab := topo.Star(net, 3, topo.DefaultConfig())
	bad := false
	start := dcqcnStarter(net, 25*simtime.Gbps)
	gen := StartPoisson(net, net.Rng.Int63(), PoissonConfig{
		Hosts:  fab.Hosts,
		Sizes:  Fixed("f", simtime.KB),
		Load:   0.5,
		HostBW: 25 * simtime.Gbps,
		Start: func(src, dst *netsim.Host, size int64, onDone func()) {
			if src == dst {
				bad = true
			}
			start(src, dst, size, onDone)
		},
	})
	net.RunUntil(simtime.Time(5 * simtime.Millisecond))
	gen.Stop()
	if bad {
		t.Fatal("generator produced src==dst flow")
	}
}

func TestRunIncastCompletion(t *testing.T) {
	net := netsim.New(4)
	fab := topo.Star(net, 5, topo.DefaultConfig())
	done := false
	RunIncast(net, IncastConfig{
		Senders:  fab.Hosts[:4],
		Receiver: fab.Hosts[4],
		Flows:    3,
		Size:     100 * simtime.KB,
		Start:    dcqcnStarter(net, 25*simtime.Gbps),
	}, func() { done = true })
	net.RunUntil(simtime.Time(50 * simtime.Millisecond))
	if !done {
		t.Fatal("incast never signalled completion")
	}
}

func TestRunPhases(t *testing.T) {
	net := netsim.New(5)
	var order []int
	RunPhases(net, []Phase{
		{Duration: simtime.Millisecond, Run: func() { order = append(order, 1) }},
		{Duration: simtime.Millisecond, Run: func() { order = append(order, 2) }},
		{Duration: simtime.Millisecond, Run: func() { order = append(order, 3) }},
	})
	net.RunUntil(simtime.Time(1500 * simtime.Microsecond))
	if len(order) != 2 {
		t.Fatalf("after 1.5ms: %v phases started, want 2", order)
	}
	net.RunUntil(simtime.Time(3 * simtime.Millisecond))
	if len(order) != 3 {
		t.Fatalf("phases ran: %v", order)
	}
}

func TestStorageClusterClosedLoop(t *testing.T) {
	net := netsim.New(6)
	fab := topo.Star(net, 8, topo.DefaultConfig())
	c := RunStorage(net, net.Rng.Int63(), StorageConfig{
		Compute: fab.Hosts[:6],
		Storage: fab.Hosts[6:],
		Model:   Table1()[0], // OLTP
		IODepth: 4,
		Start:   dcqcnStarter(net, 25*simtime.Gbps),
	})
	net.RunUntil(simtime.Time(10 * simtime.Millisecond))
	c.Stop()
	if c.CompletedIOs == 0 {
		t.Fatal("no IOs completed")
	}
	if c.IOPS() <= 0 {
		t.Fatal("IOPS not positive")
	}
	if len(c.Latencies) != int(c.CompletedIOs) {
		t.Fatalf("latencies %d != completed %d", len(c.Latencies), c.CompletedIOs)
	}
}

func TestStorageIODepthScalesConcurrency(t *testing.T) {
	run := func(depth int) int64 {
		net := netsim.New(7)
		fab := topo.Star(net, 8, topo.DefaultConfig())
		c := RunStorage(net, net.Rng.Int63(), StorageConfig{
			Compute: fab.Hosts[:6],
			Storage: fab.Hosts[6:],
			Model:   Table1()[0],
			IODepth: depth,
			Start:   dcqcnStarter(net, 25*simtime.Gbps),
		})
		net.RunUntil(simtime.Time(10 * simtime.Millisecond))
		return c.CompletedIOs
	}
	// Depth 8 saturates the storage-node links, so the gain is bounded by
	// bandwidth rather than 8x; require a clear (>40%) improvement.
	if d1, d8 := run(1), run(8); float64(d8) < 1.4*float64(d1) {
		t.Fatalf("IO depth 8 completed %d IOs vs depth 1's %d; expected clear scaling", d8, d1)
	}
}

func TestTrainingJobIterates(t *testing.T) {
	net := netsim.New(8)
	fab := topo.Star(net, 8, topo.DefaultConfig())
	job := RunTraining(net, TrainingConfig{
		Workers:     fab.Hosts[:7],
		PS:          fab.Hosts[7],
		Model:       ResNet50(),
		ComputeTime: 100 * simtime.Microsecond,
		Start:       dcqcnStarter(net, 25*simtime.Gbps),
		ScaleBytes:  100, // 1MB per transfer for test speed
	})
	net.RunUntil(simtime.Time(30 * simtime.Millisecond))
	job.Stop()
	if job.Iterations < 2 {
		t.Fatalf("only %d iterations", job.Iterations)
	}
	if job.ImagesPerSec() <= 0 {
		t.Fatal("training speed not positive")
	}
	if len(job.IterTimes) != job.Iterations {
		t.Fatal("iteration times not recorded")
	}
}

// Helpers shared by appended tests.
func netsimNew(seed int64) *netsim.Network { return netsim.New(seed) }

func topoStar(net *netsim.Network, n int) *topo.Fabric {
	return topo.Star(net, n, topo.DefaultConfig())
}

func simtimeT(d simtime.Duration) simtime.Time { return simtime.Time(d) }

func dcqcnStarterFor(net *netsim.Network) StartFlowFunc {
	return dcqcnStarter(net, 25*simtime.Gbps)
}
