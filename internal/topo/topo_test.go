package topo

import (
	"testing"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

func TestStarWiring(t *testing.T) {
	net := netsim.New(1)
	f := Star(net, 8, DefaultConfig())
	if len(f.Hosts) != 8 || len(f.Leaves) != 1 || len(f.Spines) != 0 {
		t.Fatalf("star shape wrong: %d hosts %d leaves %d spines", len(f.Hosts), len(f.Leaves), len(f.Spines))
	}
	sw := f.Leaves[0]
	if len(sw.Ports) != 8 {
		t.Fatalf("switch has %d ports, want 8", len(sw.Ports))
	}
	// Every host must be routable.
	for _, h := range f.Hosts {
		if ports := sw.Route(h.ID()); len(ports) != 1 {
			t.Fatalf("host %d has %d route ports", h.ID(), len(ports))
		}
	}
	// NIC inject limits applied.
	for _, h := range f.Hosts {
		for _, q := range h.Port.Queues {
			if q.InjectLimit <= 0 {
				t.Fatal("NIC queue missing inject limit")
			}
		}
	}
}

func TestLeafSpineWiring(t *testing.T) {
	net := netsim.New(2)
	f := LeafSpine(net, 4, 6, 2, DefaultConfig())
	if len(f.Hosts) != 24 || len(f.Leaves) != 4 || len(f.Spines) != 2 {
		t.Fatalf("fabric shape wrong")
	}
	// Each leaf: 6 host ports + 2 uplinks.
	for _, l := range f.Leaves {
		if len(l.Ports) != 8 {
			t.Fatalf("leaf has %d ports, want 8", len(l.Ports))
		}
	}
	// Each spine: one downlink per leaf.
	for _, s := range f.Spines {
		if len(s.Ports) != 4 {
			t.Fatalf("spine has %d ports, want 4", len(s.Ports))
		}
	}
	// Routing completeness: every leaf can reach every host; local hosts via
	// one port, remote via ECMP over both spines.
	for li, l := range f.Leaves {
		for lj, hosts := range f.HostsAt {
			for _, h := range hosts {
				ports := l.Route(h.ID())
				if li == lj && len(ports) != 1 {
					t.Fatalf("leaf %d local route to %d has %d ports", li, h.ID(), len(ports))
				}
				if li != lj && len(ports) != 2 {
					t.Fatalf("leaf %d remote route to %d has %d ports, want 2 (ECMP)", li, h.ID(), len(ports))
				}
			}
		}
	}
	// Spine routes: every host reachable via exactly one downlink.
	for _, s := range f.Spines {
		for _, h := range f.Hosts {
			if ports := s.Route(h.ID()); len(ports) != 1 {
				t.Fatalf("spine route to %d has %d ports", h.ID(), len(ports))
			}
		}
	}
}

func TestLeafOf(t *testing.T) {
	net := netsim.New(3)
	f := LeafSpine(net, 2, 3, 1, DefaultConfig())
	for li, hosts := range f.HostsAt {
		for _, h := range hosts {
			if got := f.LeafOf(h); got != li {
				t.Fatalf("LeafOf(%s) = %d, want %d", h.Name(), got, li)
			}
		}
	}
	other := netsim.NewHost(net, "outsider")
	if f.LeafOf(other) != -1 {
		t.Fatal("LeafOf must return -1 for unknown host")
	}
}

func TestSwitchesOrder(t *testing.T) {
	net := netsim.New(4)
	f := LeafSpine(net, 2, 2, 2, DefaultConfig())
	sws := f.Switches()
	if len(sws) != 4 {
		t.Fatalf("%d switches, want 4", len(sws))
	}
	if sws[0] != f.Leaves[0] || sws[3] != f.Spines[1] {
		t.Fatal("Switches() must list leaves first")
	}
}

func TestTestbedAndLargeSimShapes(t *testing.T) {
	net := netsim.New(5)
	tb := TestbedClos(net, DefaultConfig())
	if len(tb.Hosts) != 24 || len(tb.Leaves) != 4 || len(tb.Spines) != 2 {
		t.Fatalf("testbed shape wrong: %d/%d/%d", len(tb.Hosts), len(tb.Leaves), len(tb.Spines))
	}
	net2 := netsim.New(6)
	ls := LargeSim(net2, DefaultConfig())
	if len(ls.Hosts) != 288 || len(ls.Leaves) != 12 || len(ls.Spines) != 6 {
		t.Fatalf("large-sim shape wrong: %d/%d/%d", len(ls.Hosts), len(ls.Leaves), len(ls.Spines))
	}
}

func TestQueueWeightsPropagate(t *testing.T) {
	net := netsim.New(7)
	cfg := DefaultConfig()
	w := make([]int, netsim.NumPrio)
	w[0], w[3] = 3, 7
	cfg.QueueWeights = w
	f := Star(net, 2, cfg)
	for _, h := range f.Hosts {
		if len(h.Port.Queues) != 2 {
			t.Fatalf("host NIC has %d queues, want 2", len(h.Port.Queues))
		}
	}
	for _, p := range f.Leaves[0].Ports {
		if len(p.Queues) != 2 {
			t.Fatalf("switch port has %d queues, want 2", len(p.Queues))
		}
		if p.Queue(3).Weight != 7 || p.Queue(0).Weight != 3 {
			t.Fatal("weights not propagated")
		}
	}
}

func TestFabricBandwidths(t *testing.T) {
	net := netsim.New(8)
	cfg := DefaultConfig()
	cfg.HostBW = 25 * simtime.Gbps
	cfg.FabricBW = 100 * simtime.Gbps
	f := LeafSpine(net, 2, 2, 2, cfg)
	for _, h := range f.Hosts {
		if h.Port.Bandwidth != 25*simtime.Gbps {
			t.Fatal("host bandwidth wrong")
		}
	}
	for _, s := range f.Spines {
		for _, p := range s.Ports {
			if p.Bandwidth != 100*simtime.Gbps {
				t.Fatal("fabric bandwidth wrong")
			}
		}
	}
}

func TestLinkFailureReroutesECMP(t *testing.T) {
	net := netsim.New(3)
	f := LeafSpine(net, 2, 2, 2, DefaultConfig())
	src := f.HostsAt[0][0]
	dst := f.HostsAt[1][0]

	// Kill leaf0's uplink to spine0 (ports beyond the 2 host ports are
	// uplinks in construction order).
	leaf0 := f.Leaves[0]
	up0 := leaf0.Ports[2]
	up0.SetDown(true)

	// Many flows: all must complete via the surviving spine.
	done := 0
	for i := 0; i < 8; i++ {
		dcqcn.Start(net, src, dst, 256*simtime.KB, dcqcn.DefaultParams(25*simtime.Gbps), func(*dcqcn.Flow) { done++ })
	}
	net.RunUntil(simtime.Time(50 * simtime.Millisecond))
	if done != 8 {
		t.Fatalf("%d/8 flows completed with one spine down", done)
	}
	if up0.TxBytesTotal != 0 {
		t.Fatal("down link transmitted data")
	}

	// Recovery: bring it back and verify it carries traffic again.
	up0.SetDown(false)
	done = 0
	for i := 0; i < 32; i++ {
		dcqcn.Start(net, src, dst, 64*simtime.KB, dcqcn.DefaultParams(25*simtime.Gbps), func(*dcqcn.Flow) { done++ })
	}
	net.RunUntil(simtime.Time(100 * simtime.Millisecond))
	if done != 32 {
		t.Fatalf("%d/32 flows completed after recovery", done)
	}
	if up0.TxBytesTotal == 0 {
		t.Fatal("recovered link carried no traffic (ECMP not using it)")
	}
}

func TestAllLinksDownBlackholes(t *testing.T) {
	net := netsim.New(4)
	f := LeafSpine(net, 2, 1, 1, DefaultConfig())
	leaf0 := f.Leaves[0]
	leaf0.Ports[1].SetDown(true) // the only uplink
	src := f.HostsAt[0][0]
	dst := f.HostsAt[1][0]
	fl := dcqcn.Start(net, src, dst, 10*simtime.KB, dcqcn.DefaultParams(25*simtime.Gbps), nil)
	net.RunUntil(simtime.Time(5 * simtime.Millisecond))
	if fl.Done() {
		t.Fatal("flow completed across a fully failed path")
	}
	if leaf0.DropsTotal == 0 {
		t.Fatal("blackholed packets not counted as drops")
	}
}
