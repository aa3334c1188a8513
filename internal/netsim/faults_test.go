package netsim

import (
	"slices"
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// TestSetDownBlackholesPropagation kills a link while a packet is
// propagating: the packet must be lost and counted, never delivered.
func TestSetDownBlackholesPropagation(t *testing.T) {
	net, h1, h2, _ := rig(t, nil)
	delivered := 0
	h2.Register(1, EndpointFunc(func(p *Packet) { delivered++ }))
	h1.Send(dataPkt(h1, h2, 1, 1048))

	// First hop: ser on the NIC, then 600ns propagation to the switch.
	ser := simtime.TxTime(1048, 25*simtime.Gbps)
	net.RunUntil(simtime.Time(ser + 100)) // mid-propagation
	h1.Port.SetDown(true)
	net.Run()

	if delivered != 0 {
		t.Fatalf("%d packets delivered across a link that died mid-flight", delivered)
	}
	if h1.Port.BlackholedPackets != 1 || h1.Port.BlackholedBytes != 1048 {
		t.Fatalf("blackhole counters = %d pkts / %d bytes, want 1/1048",
			h1.Port.BlackholedPackets, h1.Port.BlackholedBytes)
	}
}

// TestSetDownBlackholesSerialization kills the switch egress link while the
// packet is on the transmitter: the packet is lost, but the shared-buffer
// accounting must still be released so the switch does not leak capacity.
func TestSetDownBlackholesSerialization(t *testing.T) {
	net, h1, h2, sw := rig(t, nil)
	delivered := 0
	h2.Register(1, EndpointFunc(func(p *Packet) { delivered++ }))
	h1.Send(dataPkt(h1, h2, 1, 1048))

	egress := sw.Ports[1] // toward h2
	ser := simtime.TxTime(1048, 25*simtime.Gbps)
	// The packet reaches the switch at ser+600 and starts serializing.
	net.RunUntil(simtime.Time(ser + 600 + ser/2))
	egress.SetDown(true)
	net.Run()

	if delivered != 0 {
		t.Fatal("packet delivered across a downed egress link")
	}
	if egress.BlackholedPackets != 1 {
		t.Fatalf("egress blackholed %d packets, want 1", egress.BlackholedPackets)
	}
	if egress.TxBytesTotal != 0 {
		t.Fatal("blackholed packet counted as transmitted")
	}
	if sw.BufferUsed() != 0 {
		t.Fatalf("switch buffer leaked %d bytes after blackhole", sw.BufferUsed())
	}
}

// TestSetDownOutageLosesThePacketsItCatches takes a host link down for a
// short outage with six packets to send. The hop events name only their
// port, so the packet each one acts on is the transmitter's or the head of
// the wire's: the outage must lose exactly the packet that was on the wire
// and arrived during it and the one whose serialization ended during it,
// deliver the packet that was on the wire but arrived after it, and send
// the rest once the link is back.
func TestSetDownOutageLosesThePacketsItCatches(t *testing.T) {
	net, h1, h2, _ := rig(t, nil)
	var got []int64
	h2.Register(1, EndpointFunc(func(p *Packet) { got = append(got, p.Seq) }))
	for i := int64(0); i < 6; i++ {
		pkt := dataPkt(h1, h2, 1, 1048)
		pkt.Seq = i
		h1.Send(pkt)
	}
	// Packet i leaves the NIC at (i+1)·ser and reaches the switch 600 ns
	// later. The outage spans 2·ser+100 .. 1100 ns: packet 0 arrives in it,
	// packet 1 after it, and packet 2 finishes serializing in it.
	ser := simtime.TxTime(1048, 25*simtime.Gbps)
	net.RunUntil(simtime.Time(2*ser + 100))
	h1.Port.SetDown(true)
	net.RunUntil(1100)
	h1.Port.SetDown(false)
	net.Run()

	if want := []int64{1, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("delivered seqs %v, want %v", got, want)
	}
	if h1.Port.BlackholedPackets != 2 || h1.Port.BlackholedBytes != 2*1048 {
		t.Fatalf("blackhole counters = %d pkts / %d bytes, want 2/2096",
			h1.Port.BlackholedPackets, h1.Port.BlackholedBytes)
	}
}

// TestSetDownRecoveryResumes verifies traffic flows again after repair and
// that queued (not yet serialized) packets survive the outage.
func TestSetDownRecoveryResumes(t *testing.T) {
	net, h1, h2, _ := rig(t, nil)
	delivered := 0
	h2.Register(1, EndpointFunc(func(p *Packet) { delivered++ }))

	h1.Port.SetDown(true)
	h1.Send(dataPkt(h1, h2, 1, 1000)) // parked in the NIC queue
	net.RunFor(10 * simtime.Microsecond)
	if delivered != 0 {
		t.Fatal("delivery across a down link")
	}
	h1.Port.SetDown(false)
	net.Run()
	if delivered != 1 {
		t.Fatalf("queued packet not delivered after repair (got %d)", delivered)
	}
	if h1.Port.BlackholedPackets != 0 {
		t.Fatal("queued packet wrongly blackholed")
	}
}

// TestSetBandwidthDegradesServiceRate halves the rate and checks the next
// packet's serialization takes twice as long.
func TestSetBandwidthDegradesServiceRate(t *testing.T) {
	net, h1, h2, _ := rig(t, nil)
	var arrival simtime.Time
	h2.Register(1, EndpointFunc(func(p *Packet) { arrival = net.Now() }))

	full := simtime.TxTime(1048, 25*simtime.Gbps)
	h1.Send(dataPkt(h1, h2, 1, 1048))
	net.Run()
	base := arrival // 2 serializations + 2 propagations

	// Degrade only the NIC uplink: its hop serializes 2x slower.
	h1.Port.SetBandwidth(12.5 * simtime.Gbps)
	start := net.Now()
	h1.Send(dataPkt(h1, h2, 1, 1048))
	net.Run()
	got := arrival.Sub(start)
	slow := simtime.TxTime(1048, 12.5*simtime.Gbps)
	want := base.Sub(0) + (slow - full) // slow hop replaces one fast serialization
	if got != want {
		t.Fatalf("degraded transfer took %v, want %v", got, want)
	}
}

// TestRouteBlackholeCounter checks the dedicated no-route counter.
func TestRouteBlackholeCounter(t *testing.T) {
	net, h1, h2, sw := rig(t, nil)
	sw.Ports[1].SetDown(true) // only route to h2
	h1.Send(dataPkt(h1, h2, 1, 700))
	net.Run()
	if sw.RouteBlackholes != 1 {
		t.Fatalf("RouteBlackholes = %d, want 1", sw.RouteBlackholes)
	}
	if sw.DropsTotal != 1 {
		t.Fatalf("DropsTotal = %d, want 1", sw.DropsTotal)
	}
}

// TestEcmpPickOverLivePorts: with some candidates down, ecmpPick must choose
// what indexing a compacted copy of the live ports would — the definition
// the fault goldens were recorded under — for every down pattern. Every
// pattern is reached from the previous one through setDown, so the switch's
// downed-port count (which gates the all-alive shortcut) is checked against
// each, repeated writes of the same value included.
func TestEcmpPickOverLivePorts(t *testing.T) {
	net := New(6)
	sw := NewSwitch(net, DefaultSwitchConfig("sw"))
	var ports []*Port
	for i := 0; i < 5; i++ {
		ports = append(ports, sw.AddPort(simtime.Gbps, 0, nil))
	}
	for mask := 0; mask < 1<<len(ports); mask++ {
		var alive []*Port
		nDown := 0
		for i, p := range ports {
			p.setDown(mask&(1<<i) != 0)
			if p.down {
				nDown++
			} else {
				alive = append(alive, p)
			}
		}
		if sw.downPorts != nDown {
			t.Fatalf("down mask %05b: switch counts %d downed ports, want %d", mask, sw.downPorts, nDown)
		}
		for f := FlowID(0); f < 64; f++ {
			var want *Port
			if len(alive) > 0 {
				want = alive[EcmpIndex(f, sw.ID(), len(alive))]
			}
			if got := sw.ecmpPick(ports, f); got != want {
				t.Fatalf("down mask %05b flow %d: picked %p, want %p", mask, f, got, want)
			}
		}
	}
}
