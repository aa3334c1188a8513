//go:build !race

package netsim

import (
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// sendPooled sends one full-size pooled data packet from src to dst and runs
// the network until it has been delivered or dropped.
func sendPooled(net *Network, src, dst *Host, flow FlowID) {
	pkt := net.AllocPacket()
	pkt.Kind = KindData
	pkt.Flow = flow
	pkt.Src = src.ID()
	pkt.Dst = dst.ID()
	pkt.Size = DefaultMTU + DataHeaderBytes
	pkt.ECT = true
	src.Send(pkt)
	net.Run()
}

// TestAllocFreePacketHop pins the full per-packet pipeline at zero
// allocations in steady state: pool alloc, NIC enqueue, serialization event,
// propagation event, delivery, and release back to the pool, across two
// hosts wired back to back.
func TestAllocFreePacketHop(t *testing.T) {
	net := New(1)
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	p1 := h1.AttachPort(25*simtime.Gbps, 600*simtime.Nanosecond, nil)
	p2 := h2.AttachPort(25*simtime.Gbps, 600*simtime.Nanosecond, nil)
	Connect(p1, p2)
	h2.Register(7, EndpointFunc(func(*Packet) {}))

	sendOne := func() { sendPooled(net, h1, h2, 7) }
	// Warm the packet pool, the event free list, and the egress queue's
	// backing array.
	for i := 0; i < 8; i++ {
		sendOne()
	}

	if avg := testing.AllocsPerRun(1000, sendOne); avg != 0 {
		t.Fatalf("one packet-hop allocates %v/op, want 0", avg)
	}
}

// TestAllocFreeForwardDownedUplink pins forwarding at zero allocations when
// an ECMP candidate is down: a leaf with three uplinks, the middle one
// failed, must pick among the survivors without building a live-port slice
// per packet. A long-lived fault would otherwise turn every packet through
// the degraded switch into garbage.
func TestAllocFreeForwardDownedUplink(t *testing.T) {
	net := New(1)
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	leaf := NewSwitch(net, DefaultSwitchConfig("leaf"))
	agg := NewSwitch(net, DefaultSwitchConfig("agg"))
	bw, d := 25*simtime.Gbps, 600*simtime.Nanosecond
	Connect(h1.AttachPort(bw, d, nil), leaf.AddPort(bw, d, nil))
	var ups []*Port
	for i := 0; i < 3; i++ {
		up := leaf.AddPort(bw, d, nil)
		Connect(up, agg.AddPort(bw, d, nil))
		ups = append(ups, up)
	}
	down := agg.AddPort(bw, d, nil)
	Connect(h2.AttachPort(bw, d, nil), down)
	leaf.SetRoute(h2.ID(), ups...)
	agg.SetRoute(h2.ID(), down)
	ups[1].SetDown(true)

	// Sixteen flow ids, so the hash spreads packets over both survivors.
	delivered, sent := 0, 0
	for f := FlowID(0); f < 16; f++ {
		h2.Register(f, EndpointFunc(func(*Packet) { delivered++ }))
	}
	sendOne := func() {
		sendPooled(net, h1, h2, FlowID(sent%16))
		sent++
	}
	// Warm the pools and confirm the degraded ECMP set is what is exercised.
	for i := 0; i < 64; i++ {
		sendOne()
	}
	if ups[0].TxBytesTotal == 0 || ups[2].TxBytesTotal == 0 || ups[1].TxBytesTotal != 0 {
		t.Fatalf("uplink bytes %d/%d/%d: want both survivors used and the downed link idle",
			ups[0].TxBytesTotal, ups[1].TxBytesTotal, ups[2].TxBytesTotal)
	}

	if avg := testing.AllocsPerRun(1000, sendOne); avg != 0 {
		t.Fatalf("forwarding past a downed uplink allocates %v/op, want 0", avg)
	}
	if delivered != sent {
		t.Fatalf("delivered %d of %d packets", delivered, sent)
	}
}

// TestPacketPoolReuseAndDoubleReleaseGuard checks the pool actually recycles
// and that a double release is caught instead of silently aliasing two
// in-flight packets.
func TestPacketPoolReuseAndDoubleReleaseGuard(t *testing.T) {
	net := New(1)
	p := net.AllocPacket()
	p.Size = 99
	net.ReleasePacket(p)
	if got := net.AllocPacket(); got != p {
		t.Fatal("pool did not recycle the released packet")
	} else if got.Size != 0 {
		t.Fatal("recycled packet not zeroed")
	}
	net.ReleasePacket(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double release")
		}
	}()
	net.ReleasePacket(p)
}
