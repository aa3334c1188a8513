package topo

import (
	"testing"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

func TestFatTreeShape(t *testing.T) {
	net := netsim.New(1)
	f := FatTree(net, 4, DefaultConfig())
	// k=4: 16 hosts, 8 edge, 8 agg, 4 core.
	if len(f.Hosts) != 16 {
		t.Fatalf("%d hosts, want 16", len(f.Hosts))
	}
	if len(f.Leaves) != 8 {
		t.Fatalf("%d edge switches, want 8", len(f.Leaves))
	}
	if len(f.Spines) != 12 { // 8 agg + 4 core
		t.Fatalf("%d agg+core switches, want 12", len(f.Spines))
	}
	// Every edge switch must route to every host.
	for _, e := range f.Leaves {
		for _, h := range f.Hosts {
			if len(e.Route(h.ID())) == 0 {
				t.Fatalf("edge %s has no route to %s", e.Name(), h.Name())
			}
		}
	}
}

func TestFatTreePanicsOnOddK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd k")
		}
	}()
	FatTree(netsim.New(1), 5, DefaultConfig())
}

func TestFatTreeEndToEnd(t *testing.T) {
	net := netsim.New(2)
	f := FatTree(net, 4, DefaultConfig())
	// Cross-pod transfer (host 0 in pod 0 -> last host in pod 3): traverses
	// edge->agg->core->agg->edge.
	src, dst := f.Hosts[0], f.Hosts[len(f.Hosts)-1]
	fl := dcqcn.Start(net, src, dst, simtime.MB, dcqcn.DefaultParams(25*simtime.Gbps), nil)
	net.RunUntil(simtime.Time(50 * simtime.Millisecond))
	if !fl.Done() {
		t.Fatalf("cross-pod flow incomplete: %d/%d", fl.Received(), fl.Size)
	}
	if rate := simtime.RateOf(fl.Size, fl.FCT()); rate < 15*simtime.Gbps {
		t.Fatalf("cross-pod goodput %.1fG too low", float64(rate)/1e9)
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
