package netsim

import (
	"fmt"
	"testing"

	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
)

// rig builds two hosts joined by one switch with explicit wiring.
func rig(t *testing.T, weights []int) (*Network, *Host, *Host, *Switch) {
	t.Helper()
	net := New(1)
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	sw := NewSwitch(net, DefaultSwitchConfig("sw"))
	bw := 25 * simtime.Gbps
	d := simtime.Duration(600)
	p1 := h1.AttachPort(bw, d, weights)
	p2 := h2.AttachPort(bw, d, weights)
	s1 := sw.AddPort(bw, d, weights)
	s2 := sw.AddPort(bw, d, weights)
	Connect(p1, s1)
	Connect(p2, s2)
	sw.SetRoute(h1.ID(), s1)
	sw.SetRoute(h2.ID(), s2)
	return net, h1, h2, sw
}

func dataPkt(src, dst *Host, flow FlowID, size int) *Packet {
	return &Packet{
		Kind: KindData, Flow: flow, Src: src.ID(), Dst: dst.ID(),
		Size: size, ECT: true,
	}
}

func TestPacketDelivery(t *testing.T) {
	net, h1, h2, _ := rig(t, nil)
	var got []*Packet
	h2.Register(7, EndpointFunc(func(p *Packet) { got = append(got, p) }))
	h1.Send(dataPkt(h1, h2, 7, 1048))
	net.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	// Arrival time = 2 serializations + 2 propagations.
	ser := simtime.TxTime(1048, 25*simtime.Gbps)
	want := simtime.Time(2*ser + 2*600)
	if net.Now() != want {
		t.Fatalf("arrival at %v, want %v", net.Now(), want)
	}
}

func TestUnknownFlowDropped(t *testing.T) {
	net, h1, h2, _ := rig(t, nil)
	h1.Send(dataPkt(h1, h2, 99, 500)) // no endpoint registered
	net.Run()                         // must not panic
}

// TestSwitchPanicsOnMissingRoute: a destination the table has no entry for —
// never programmed, beyond the table, or negative — is a fatal topology bug
// with the same message wherever it falls.
func TestSwitchPanicsOnMissingRoute(t *testing.T) {
	for _, tc := range []struct {
		name string
		dst  func(h2 *Host, nodes int) int
	}{
		{"unprogrammed", func(h2 *Host, _ int) int { return h2.ID() }},
		{"beyond-table", func(_ *Host, nodes int) int { return nodes + 100 }},
		{"negative", func(*Host, int) int { return -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := New(2)
			h1 := NewHost(net, "h1")
			h2 := NewHost(net, "h2")
			sw := NewSwitch(net, DefaultSwitchConfig("sw"))
			p1 := h1.AttachPort(simtime.Gbps, 0, nil)
			s1 := sw.AddPort(simtime.Gbps, 0, nil)
			Connect(p1, s1)
			sw.SetRoute(h1.ID(), s1) // the table exists; h2 is not in it
			dst := tc.dst(h2, len(net.Nodes()))
			if got := sw.Route(dst); got != nil {
				t.Fatalf("Route(%d) = %v, want nil", dst, got)
			}
			pkt := dataPkt(h1, h2, 1, 100)
			pkt.Dst = dst
			h1.Send(pkt)
			defer func() {
				want := fmt.Sprintf("netsim: switch sw has no route to host %d", dst)
				if got := recover(); got != want {
					t.Fatalf("panic %v, want %q", got, want)
				}
			}()
			net.Run()
		})
	}
}

// TestRouteTableSizedOnce: the first SetRoute sizes the table to the node
// registry, so installing the remaining routes never regrows it, and a
// destination beyond the registry (a shard-local view) still fits.
func TestRouteTableSizedOnce(t *testing.T) {
	net := New(2)
	var hosts []*Host
	for i := 0; i < 8; i++ {
		hosts = append(hosts, NewHost(net, "h"))
	}
	sw := NewSwitch(net, DefaultSwitchConfig("sw"))
	p := sw.AddPort(simtime.Gbps, 0, nil)
	sw.SetRoute(hosts[0].ID(), p)
	if len(sw.routes) != len(net.Nodes()) {
		t.Fatalf("table has %d entries after the first route, want the registry's %d", len(sw.routes), len(net.Nodes()))
	}
	first := &sw.routes[0]
	for _, h := range hosts[1:] {
		sw.SetRoute(h.ID(), p)
	}
	if &sw.routes[0] != first {
		t.Fatal("route table regrew while routes inside the registry were installed")
	}
	far := len(net.Nodes()) + 5
	sw.SetRoute(far, p)
	if got := sw.Route(far); len(got) != 1 || got[0] != p {
		t.Fatalf("Route(%d) = %v after SetRoute beyond the registry", far, got)
	}
	if got := sw.Route(far - 1); got != nil {
		t.Fatalf("Route(%d) = %v for a gap entry, want nil", far-1, got)
	}
}

func TestECNMarkingAboveKmax(t *testing.T) {
	net, h1, h2, sw := rig(t, nil)
	sw.SetRED(red.Config{Kmin: 0, Kmax: 0, Pmax: 1}) // mark everything
	n := 0
	h2.Register(1, EndpointFunc(func(p *Packet) {
		if p.CE {
			n++
		}
	}))
	for i := 0; i < 10; i++ {
		h1.Send(dataPkt(h1, h2, 1, 1000))
	}
	net.Run()
	if n != 10 {
		t.Fatalf("%d/10 packets marked with Kmax=0", n)
	}
	if sw.MarksTotal != 10 {
		t.Fatalf("switch counted %d marks", sw.MarksTotal)
	}
}

func TestNonECTDroppedAboveKmax(t *testing.T) {
	net, h1, h2, sw := rig(t, nil)
	sw.SetRED(red.Config{Kmin: 0, Kmax: 0, Pmax: 1})
	delivered := 0
	h2.Register(1, EndpointFunc(func(p *Packet) { delivered++ }))
	for i := 0; i < 5; i++ {
		p := dataPkt(h1, h2, 1, 1000)
		p.ECT = false
		h1.Send(p)
	}
	net.Run()
	if delivered != 0 {
		t.Fatalf("%d non-ECT packets delivered above Kmax", delivered)
	}
	if sw.DropsTotal != 5 {
		t.Fatalf("drop counter %d, want 5", sw.DropsTotal)
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	net := New(3)
	cfg := DefaultSwitchConfig("tiny")
	cfg.BufferBytes = 10 * 1048 // room for ~10 packets
	cfg.PFC.Enabled = false
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	sw := NewSwitch(net, cfg)
	p1 := h1.AttachPort(100*simtime.Gbps, 0, nil)
	p2 := h2.AttachPort(1*simtime.Gbps, 0, nil) // slow egress
	s1 := sw.AddPort(100*simtime.Gbps, 0, nil)
	s2 := sw.AddPort(1*simtime.Gbps, 0, nil)
	Connect(p1, s1)
	Connect(p2, s2)
	sw.SetRoute(h1.ID(), s1)
	sw.SetRoute(h2.ID(), s2)
	sw.SetRED(red.Config{Kmin: 1 << 30, Kmax: 1 << 30, Pmax: 1}) // no marking
	delivered := 0
	h2.Register(1, EndpointFunc(func(p *Packet) { delivered++ }))
	for i := 0; i < 100; i++ {
		h1.Send(dataPkt(h1, h2, 1, 1048))
	}
	net.Run()
	if sw.DropsTotal == 0 {
		t.Fatal("no drops despite 10-packet buffer and 100-packet burst")
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if delivered+int(sw.DropsTotal) != 100 {
		t.Fatalf("delivered %d + dropped %d != 100", delivered, sw.DropsTotal)
	}
}

func TestPFCPausesSender(t *testing.T) {
	// Small buffer + PFC: instead of dropping, the switch pauses the host.
	net := New(4)
	cfg := DefaultSwitchConfig("sw")
	cfg.BufferBytes = 100 * 1048
	cfg.PFC = PFCConfig{Enabled: true, Alpha: 1.0 / 8, XonGap: 2 * 1048}
	cfg.DefaultRED = red.Config{Kmin: 1 << 30, Kmax: 1 << 30, Pmax: 1}
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	sw := NewSwitch(net, cfg)
	p1 := h1.AttachPort(100*simtime.Gbps, 600, nil)
	p2 := h2.AttachPort(5*simtime.Gbps, 600, nil)
	s1 := sw.AddPort(100*simtime.Gbps, 600, nil)
	s2 := sw.AddPort(5*simtime.Gbps, 600, nil)
	Connect(p1, s1)
	Connect(p2, s2)
	sw.SetRoute(h1.ID(), s1)
	sw.SetRoute(h2.ID(), s2)
	delivered := 0
	h2.Register(1, EndpointFunc(func(p *Packet) { delivered++ }))
	var pauses int
	h1.PauseHooks = append(h1.PauseHooks, func(prio int, paused bool) {
		if paused {
			pauses++
		}
	})
	for i := 0; i < 500; i++ {
		h1.Send(dataPkt(h1, h2, 1, 1048))
	}
	net.Run()
	if pauses == 0 {
		t.Fatal("PFC never paused the sender")
	}
	if sw.DropsTotal != 0 {
		t.Fatalf("%d drops despite PFC (losslessness violated)", sw.DropsTotal)
	}
	if delivered != 500 {
		t.Fatalf("delivered %d/500", delivered)
	}
	if h1.Port.PauseRxEvents == 0 {
		t.Fatal("pause events not counted at the host port")
	}
	if h1.Port.PausedDuration <= 0 {
		t.Fatal("paused duration not accounted")
	}
}

func TestDWRRWeightedSharing(t *testing.T) {
	// Two saturated queues with weights 7:3 must share ~70/30.
	net := New(5)
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	sw := NewSwitch(net, DefaultSwitchConfig("sw"))
	weights := make([]int, NumPrio)
	weights[0], weights[3] = 3, 7
	bw := 10 * simtime.Gbps
	p1 := h1.AttachPort(100*simtime.Gbps, 0, weights)
	p2 := h2.AttachPort(bw, 0, weights)
	s1 := sw.AddPort(100*simtime.Gbps, 0, weights)
	s2 := sw.AddPort(bw, 0, weights)
	Connect(p1, s1)
	Connect(p2, s2)
	sw.SetRoute(h1.ID(), s1)
	sw.SetRoute(h2.ID(), s2)
	sw.SetRED(red.Config{Kmin: 1 << 30, Kmax: 1 << 30, Pmax: 1})
	h2.Register(1, EndpointFunc(func(p *Packet) {}))
	h2.Register(2, EndpointFunc(func(p *Packet) {}))
	for i := 0; i < 2000; i++ {
		pa := dataPkt(h1, h2, 1, 1048)
		pa.Prio = 0
		h1.Send(pa)
		pb := dataPkt(h1, h2, 2, 1048)
		pb.Prio = 3
		h1.Send(pb)
	}
	// Run long enough that the bottleneck stays saturated for a while, then
	// check the share mid-drain.
	net.RunUntil(simtime.Time(simtime.Millisecond))
	q0 := s2.Queue(0).TxBytes
	q3 := s2.Queue(3).TxBytes
	ratio := float64(q3) / float64(q0+q3)
	if ratio < 0.65 || ratio > 0.75 {
		t.Fatalf("DWRR share for weight-7 queue = %.2f, want ~0.70", ratio)
	}
}

func TestPriorityNormalizedToServingQueue(t *testing.T) {
	// A packet at prio 5 with no prio-5 queue must be re-classed to the
	// default queue's priority so PFC acts consistently.
	net, h1, h2, _ := rig(t, nil) // single queue at prio 0
	var gotPrio = -1
	h2.Register(1, EndpointFunc(func(p *Packet) { gotPrio = int(p.Prio) }))
	p := dataPkt(h1, h2, 1, 500)
	p.Prio = 5
	h1.Send(p)
	net.Run()
	if gotPrio != 0 {
		t.Fatalf("packet priority %d at receiver, want normalized 0", gotPrio)
	}
}

// TestPrioTableMatchesQueueScan: Queue(prio) answers from a table built at
// construction; it must agree with a scan of Queues for every priority and
// every shape of weight vector, and stay nil outside the table.
func TestPrioTableMatchesQueueScan(t *testing.T) {
	net := New(1)
	h := NewHost(net, "h")
	for _, weights := range [][]int{
		nil,
		{1},
		{0, 3, 0, 1},
		{0, 0, 0, 0},
		{5, 0, 0, 0, 0, 0, 0, 2},
		{1, 1, 1, 1, 1, 1, 1, 1},
	} {
		p := newPort(net, h, 0, simtime.Gbps, 0, weights)
		for prio := -2; prio < NumPrio+2; prio++ {
			var want *EgressQueue
			for _, q := range p.Queues {
				if q.Prio == prio {
					want = q
				}
			}
			if got := p.Queue(prio); got != want {
				t.Fatalf("weights %v: Queue(%d) = %p, scan finds %p", weights, prio, got, want)
			}
		}
	}
}

// TestUnmappedPriorityFallsToFirstQueue: on a port whose weight vector skips
// priorities, a packet of a skipped class rides Queues[0] and is re-classed
// to it.
func TestUnmappedPriorityFallsToFirstQueue(t *testing.T) {
	net, h1, h2, sw := rig(t, []int{0, 3, 0, 1}) // queues at prio 1 and 3
	gotPrio := -1
	h2.Register(1, EndpointFunc(func(p *Packet) { gotPrio = int(p.Prio) }))
	p := dataPkt(h1, h2, 1, 500)
	p.Prio = 2
	h1.Send(p)
	net.Run()
	if gotPrio != 1 {
		t.Fatalf("packet priority %d at receiver, want Queues[0]'s 1", gotPrio)
	}
	if q := sw.Ports[1].Queues[0]; q.Prio != 1 || q.TxPackets != 1 {
		t.Fatalf("switch egress Queues[0] (prio %d) sent %d packets, want prio 1 and 1 packet", q.Prio, q.TxPackets)
	}
	if !h1.Port.CanInject(2) || !h1.Port.CanInject(6) {
		t.Fatal("CanInject refused an unmapped priority on an idle NIC")
	}
}

func TestECMPStableAndBalanced(t *testing.T) {
	net := New(6)
	sw := NewSwitch(net, DefaultSwitchConfig("sw"))
	var ports []*Port
	for i := 0; i < 4; i++ {
		ports = append(ports, sw.AddPort(simtime.Gbps, 0, nil))
	}
	// Stability: same flow always hashes to the same port.
	for f := FlowID(1); f < 100; f++ {
		first := sw.ecmpPick(ports, f)
		for i := 0; i < 10; i++ {
			if sw.ecmpPick(ports, f) != first {
				t.Fatalf("ECMP unstable for flow %d", f)
			}
		}
	}
	// Balance: many flows spread across all ports.
	counts := map[*Port]int{}
	for f := FlowID(0); f < 4000; f++ {
		counts[sw.ecmpPick(ports, f)]++
	}
	for i, p := range ports {
		if counts[p] < 700 || counts[p] > 1300 {
			t.Fatalf("ECMP imbalance: port %d got %d of 4000", i, counts[p])
		}
	}
}

func TestByteTimeIntegral(t *testing.T) {
	net := New(7)
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	bw := simtime.Rate(8000) // 1000 bytes/sec: 1 packet of 1000B takes 1s
	p1 := h1.AttachPort(bw, 0, nil)
	p2 := h2.AttachPort(bw, 0, nil)
	Connect(p1, p2)
	h2.Register(1, EndpointFunc(func(p *Packet) {}))
	// Two packets: the second waits one full serialization (1s) in queue.
	h1.Send(&Packet{Kind: KindData, Flow: 1, Src: h1.ID(), Dst: h2.ID(), Size: 1000})
	h1.Send(&Packet{Kind: KindData, Flow: 1, Src: h1.ID(), Dst: h2.ID(), Size: 1000})
	net.Run()
	integ := p1.Queues[0].ByteTimeIntegral()
	// Packet 2 sat in queue for 1s at 1000 bytes -> ~1000 byte-seconds.
	if integ < 900 || integ > 1100 {
		t.Fatalf("byte-time integral %v, want ~1000", integ)
	}
}

func TestUtilizationHelper(t *testing.T) {
	net := New(8)
	h := NewHost(net, "h")
	p := h.AttachPort(10*simtime.Gbps, 0, nil)
	// 1.25 GB in 1s at 10Gbps = 100%.
	if u := p.Utilization(1250000000, simtime.Second); u < 0.999 || u > 1.001 {
		t.Fatalf("utilization %v, want 1.0", u)
	}
	if u := p.Utilization(0, simtime.Second); u != 0 {
		t.Fatalf("zero bytes utilization %v", u)
	}
	if u := p.Utilization(100, 0); u != 0 {
		t.Fatalf("zero window utilization %v", u)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindData: "data", KindAck: "ack", KindCNP: "cnp",
		KindPause: "pause", KindResume: "resume",
	} {
		if k.String() != want {
			t.Errorf("Kind %d string %q, want %q", k, k.String(), want)
		}
	}
}
