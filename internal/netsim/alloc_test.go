//go:build !race

package netsim

import (
	"math/bits"
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// sendPooled sends one full-size pooled data packet from src to dst and runs
// the network until it has been delivered or dropped.
func sendPooled(net *Network, src, dst *Host, flow FlowID) {
	enqueuePooled(net, src, dst, flow)
	net.Run()
}

func enqueuePooled(net *Network, src, dst *Host, flow FlowID) {
	pkt := net.AllocPacket()
	pkt.Kind = KindData
	pkt.Flow = flow
	pkt.Src = src.ID()
	pkt.Dst = dst.ID()
	pkt.Size = DefaultMTU + DataHeaderBytes
	pkt.ECT = true
	src.Send(pkt)
}

// TestAllocFreePacketHop pins the full per-packet pipeline at zero
// allocations in steady state: pool alloc, NIC enqueue, serialization event,
// propagation event, delivery, and release back to the pool, across two
// hosts wired back to back.
func TestAllocFreePacketHop(t *testing.T) {
	net, h1, h2 := watchRig(0) // nobody watches the ports

	sendOne := func() { sendPooled(net, h1, h2, 7) }
	// Warm the packet pool, the event free list, and the egress queue's
	// backing array.
	for i := 0; i < 8; i++ {
		sendOne()
	}

	if avg := testing.AllocsPerRun(1000, sendOne); avg != 0 {
		t.Fatalf("one packet-hop allocates %v/op, want 0", avg)
	}
	if len(net.touched) != 0 || cap(net.touched) != 0 {
		t.Fatalf("unwatched ports grew the touched list to len %d cap %d", len(net.touched), cap(net.touched))
	}
}

// TestAllocFreePacketHopWatched is the same hop through a port a hybrid
// engine watches, at a depth any standing packet reaches (the second of two
// back-to-back packets waits behind the first): listing the port and taking
// the list, as a tick would, reuse the list's backing array.
func TestAllocFreePacketHopWatched(t *testing.T) {
	net, h1, h2 := watchRig(1)
	touches := 0
	sendOne := func() {
		enqueuePooled(net, h1, h2, 7)
		sendPooled(net, h1, h2, 7)
		touches += len(net.TakeTouched())
	}
	for i := 0; i < 8; i++ {
		sendOne()
	}
	if avg := testing.AllocsPerRun(1000, sendOne); avg != 0 {
		t.Fatalf("one packet-hop through a watched port allocates %v/op, want 0", avg)
	}
	if touches < 1000 {
		t.Fatalf("only %d touches in over 1000 hops: the watched path was not exercised", touches)
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
	if cap(net.touched) != 0 {
		t.Fatal("SetDown on an unwatched port grew the touched list")
	}
}

// TestAllocFreeForwardAndDeliver pins a switched hop at zero allocations on
// both table lookups it makes: the switch's route classes, and the Network's
// endpoint table, through a slot and through the overflow map (a third host
// bound on one id, and an id far beyond the table's bound).
func TestAllocFreeForwardAndDeliver(t *testing.T) {
	net, h1, h2, _ := rig(t, nil)
	h3 := NewHost(net, "h3")
	delivered, sent := 0, 0
	flows := []FlowID{1, 2, 3, 4, 5, 6, 7, 8, 1 << 40}
	for _, f := range flows {
		h1.Register(f, EndpointFunc(func(*Packet) {}))
		h2.Register(f, EndpointFunc(func(*Packet) { delivered++ }))
	}
	h3.Register(1, EndpointFunc(func(*Packet) {}))
	if len(net.endpoints.over) != 3 {
		t.Fatalf("%d overflow bindings, want 3: the overflow lookup is not exercised", len(net.endpoints.over))
	}
	sendOne := func() {
		sendPooled(net, h1, h2, flows[sent%len(flows)])
		sent++
	}
	for i := 0; i < 64; i++ {
		sendOne()
	}
	if avg := testing.AllocsPerRun(1000, sendOne); avg != 0 {
		t.Fatalf("a switched hop with table dispatch allocates %v/op, want 0", avg)
	}
	if delivered != sent {
		t.Fatalf("delivered %d of %d packets", delivered, sent)
	}
}

// TestAllocFreeSaturatedLinkResidency pins what a FIFO that never empties
// costs: a closed loop keeps eight packets between h1's NIC queue and the
// wire for 10^5 packets, so neither the flight ring nor the queue ever
// drains. Their backing must stay at the capacity of their high-water
// occupancy (a FIFO that reclaims space only when empty would walk
// kilobytes of it here), and the steady state must not allocate.
func TestAllocFreeSaturatedLinkResidency(t *testing.T) {
	net, h1, h2 := watchRig(0)
	p, q := h1.Port, h1.Port.Queues[0]
	delivered, maxFlight, maxQueued := 0, 0, 0
	h2.Register(7, EndpointFunc(func(*Packet) {
		delivered++
		// arrive popped this packet's record before delivering it.
		maxFlight = max(maxFlight, p.flight.len()+1)
		enqueuePooled(net, h1, h2, 7)
		maxQueued = max(maxQueued, q.Len())
	}))
	for i := 0; i < 8; i++ {
		enqueuePooled(net, h1, h2, 7)
	}
	maxQueued = q.Len()
	for delivered < 1000 {
		net.RunFor(10 * simtime.Microsecond)
	}
	if avg := testing.AllocsPerRun(100, func() { net.RunFor(10 * simtime.Microsecond) }); avg != 0 {
		t.Fatalf("a saturated link allocates %v per 10 µs in steady state, want 0", avg)
	}
	for delivered < 100000 {
		net.RunFor(100 * simtime.Microsecond)
	}
	if p.flight.len() == 0 || q.Len() == 0 || maxFlight < 2 {
		t.Fatalf("flight %d (max %d), queue %d: the link is not saturated", p.flight.len(), maxFlight, q.Len())
	}
	pow2 := func(n int) int { return 1 << bits.Len(uint(n-1)) }
	if got, want := len(p.flight.buf), pow2(maxFlight); got != want {
		t.Errorf("flight ring capacity %d after %d packets with at most %d in flight, want %d", got, delivered, maxFlight, want)
	}
	if got, want := len(q.pkts.buf), pow2(maxQueued); got != want {
		t.Errorf("queue ring capacity %d after %d packets with at most %d queued, want %d", got, delivered, maxQueued, want)
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
