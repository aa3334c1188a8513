package netsim

import (
	"bytes"
	"testing"

	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// pfcWorld is a fast sender behind a slow egress on a small buffer: a burst
// fills the switch's ingress accounting and asserts a pause within
// microseconds.
func pfcWorld() (*Network, *Host, *Host, *Switch) {
	net := New(4)
	cfg := DefaultSwitchConfig("sw")
	cfg.BufferBytes = 100 * 1048
	cfg.PFC = PFCConfig{Enabled: true, Alpha: 1.0 / 8, XonGap: 2 * 1048}
	cfg.DefaultRED = red.Config{Kmin: 1 << 30, Kmax: 1 << 30, Pmax: 1}
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	sw := NewSwitch(net, cfg)
	weights := []int{0, 3, 0, 1}
	p1 := h1.AttachPort(100*simtime.Gbps, 600, weights)
	p2 := h2.AttachPort(5*simtime.Gbps, 600, weights)
	s1 := sw.AddPort(100*simtime.Gbps, 600, weights)
	s2 := sw.AddPort(5*simtime.Gbps, 600, weights)
	Connect(p1, s1)
	Connect(p2, s2)
	sw.SetRoute(h1.ID(), s1)
	sw.SetRoute(h2.ID(), s2)
	return net, h1, h2, sw
}

func saveNet(net *Network) []byte {
	w := codec.NewWriter()
	net.State(codec.Save(w))
	return w.Finish()
}

// TestSnapshotRoundTripIngressAccounting: a switch snapshotted with bytes
// resident in its per-(port, priority) ingress accounting and a pause
// asserted restores to the same accounting, re-saves byte-equal, and
// finishes the run exactly as the uninterrupted world does.
func TestSnapshotRoundTripIngressAccounting(t *testing.T) {
	load := func(h1, h2 *Host) {
		for i := 0; i < 300; i++ {
			p := dataPkt(h1, h2, 1, 1048)
			p.Prio = uint8(1 + 2*(i%2)) // both queues of the sparse weight vector
			h1.Send(p)
		}
	}
	net, h1, h2, sw := pfcWorld()
	load(h1, h2)
	net.RunUntil(simtime.Time(20 * simtime.Microsecond))
	if sw.ingUsed[0][1] == 0 || sw.ingUsed[0][3] == 0 {
		t.Fatalf("ingress accounting %v: the burst left nothing resident", sw.ingUsed[0])
	}
	if !sw.pauseSent[0][1] && !sw.pauseSent[0][3] {
		t.Fatal("no pause asserted at the snapshot instant; the scenario exercises nothing")
	}
	img := saveNet(net)

	net2, _, _, sw2 := pfcWorld()
	r, err := codec.NewReader(img)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if net2.State(codec.Load(r)); r.Err() != nil {
		t.Fatalf("restore: %v", r.Err())
	}
	if sw2.ingUsed[0] != sw.ingUsed[0] || sw2.pauseSent[0] != sw.pauseSent[0] || sw2.totalUsed != sw.totalUsed {
		t.Fatalf("restored accounting %v %v %d, want %v %v %d",
			sw2.ingUsed[0], sw2.pauseSent[0], sw2.totalUsed, sw.ingUsed[0], sw.pauseSent[0], sw.totalUsed)
	}
	if !bytes.Equal(saveNet(net2), img) {
		t.Fatal("save→restore→save is not byte-identical")
	}

	net.Run()
	net2.Run()
	if !bytes.Equal(saveNet(net2), saveNet(net)) {
		t.Fatal("restored world finished in a different state than the uninterrupted one")
	}
	if sw2.pauseSent[0] != [NumPrio]bool{} {
		t.Fatalf("restored switch ended with pauses still asserted: %v", sw2.pauseSent[0])
	}
}

// rotate moves a ring's phase without changing its (empty) contents: k
// pushes then k pops leave head at k modulo the capacity they grew.
func rotate[T any](r *ring[T], k int) {
	var zero T
	for i := 0; i < k; i++ {
		r.push(zero)
	}
	for i := 0; i < k; i++ {
		r.pop()
	}
}

// TestSnapshotIndependentOfRingPhase: two worlds hold the same flight, queue
// and waiter contents at different ring phases and capacities — one grew its
// rings from empty, the other had every ring pre-rotated — and must encode
// to the same bytes; the image restored into either kind of world re-saves
// byte-equal and finishes the run as the uninterrupted world does. One
// switch port is down at the snapshot, so restore must also recount
// downPorts through the setter.
func TestSnapshotIndependentOfRingPhase(t *testing.T) {
	build := func(k int) (*Network, *Host, *Host, *Switch) {
		net, h1, h2, sw := pfcWorld()
		sw.AddPort(simtime.Gbps, 600, nil) // unconnected; downed below
		for _, p := range append([]*Port{h1.Port, h2.Port}, sw.Ports...) {
			rotate(&p.flight, k)
			for _, q := range p.Queues {
				rotate(&q.pkts, k)
				rotate(&q.waiters, k)
			}
		}
		return net, h1, h2, sw
	}
	load := func(net *Network, h1, h2 *Host, sw *Switch) {
		for i := 0; i < 300; i++ {
			p := dataPkt(h1, h2, 1, 1048)
			p.Prio = uint8(1 + 2*(i%2))
			h1.Send(p)
		}
		net.RunUntil(simtime.Time(20 * simtime.Microsecond))
		sw.Ports[2].SetEndDown(true)
		for f := FlowID(1); f <= 3; f++ {
			h1.Port.WhenReady(1, DoneWaiter{Kind: WaiterDCQCN, Flow: f})
		}
	}
	resolve := func(kind uint8, flow FlowID) Waiter { return DoneWaiter{Kind: kind, Flow: flow} }

	// World B's rings were grown past anything the run needs and left with
	// head near the end, so its burst wraps where world A's grows from zero.
	netA, a1, a2, swA := build(0)
	netB, b1, b2, swB := build(400)
	load(netA, a1, a2, swA)
	load(netB, b1, b2, swB)
	type phase struct{ head, n, size int }
	phases := func(h *Host, sw *Switch) []phase {
		var out []phase
		for _, p := range []*Port{h.Port, sw.Ports[1]} {
			out = append(out, phase{int(p.flight.head), p.flight.len(), len(p.flight.buf)})
			for _, q := range p.Queues {
				out = append(out, phase{int(q.pkts.head), q.pkts.len(), len(q.pkts.buf)},
					phase{int(q.waiters.head), q.waiters.len(), len(q.waiters.buf)})
			}
		}
		return out
	}
	live, wrapped := 0, 0
	pb := phases(b1, swB)
	for i, a := range phases(a1, swA) {
		b := pb[i]
		if a.n != b.n {
			t.Fatalf("worlds diverged before the snapshot: ring %d holds %d and %d", i, a.n, b.n)
		}
		if a.n > 0 && a == b {
			t.Fatalf("ring %d is at %+v in both worlds: the test compares nothing", i, a)
		}
		if a.n > 0 {
			live++
		}
		if b.head+b.n > b.size {
			wrapped++
		}
	}
	if live < 3 || wrapped == 0 {
		t.Fatalf("%d non-empty rings, %d wrapped in the rotated world: want a flight, a queue and a waiter ring live and one wrapped", live, wrapped)
	}
	img := saveNet(netA)
	if !bytes.Equal(saveNet(netB), img) {
		t.Fatal("the same contents at a different ring phase encoded to different bytes")
	}

	netA.Run()
	final := saveNet(netA)
	for _, k := range []int{0, 3} {
		net, _, _, sw := build(k)
		r, err := codec.NewReader(img)
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		if net.State(codec.Load(r)); r.Err() != nil {
			t.Fatalf("restore: %v", r.Err())
		}
		if err := net.ResolveWaiters(resolve); err != nil {
			t.Fatalf("ResolveWaiters: %v", err)
		}
		if sw.downPorts != 1 {
			t.Fatalf("rotation %d: restored switch counts %d downed ports, want 1", k, sw.downPorts)
		}
		if !bytes.Equal(saveNet(net), img) {
			t.Fatalf("rotation %d: save→restore→save is not byte-identical", k)
		}
		net.Run()
		if !bytes.Equal(saveNet(net), final) {
			t.Fatalf("rotation %d: restored world finished in a different state than the uninterrupted one", k)
		}
	}
}

// TestLoadPacketRejectsOutOfRange: Prio, PausePrio and inPort are saved as
// Ints wider than their fields; an image carrying a value the field cannot
// hold must fail the read, not restore a truncated packet.
func TestLoadPacketRejectsOutOfRange(t *testing.T) {
	// raw writes Packet.state's sequence with free choice of the three.
	raw := func(prio, pausePrio, inPort int) []byte {
		w := codec.NewWriter()
		w.Int(int(KindData))
		w.U64(7)
		w.Int(1)
		w.Int(2)
		w.Int(prio)
		w.Int(1048)
		w.I64(3)
		w.I64(4)
		for i := 0; i < 5; i++ {
			w.Bool(i%2 == 0)
		}
		w.Int(pausePrio)
		w.Int(inPort)
		return w.Finish()
	}
	w := codec.NewWriter()
	(&Packet{Kind: KindData, Flow: 7, Src: 1, Dst: 2, Prio: 255, Size: 1048, Seq: 3, FlowBytes: 4,
		Last: true, ECT: true, ECE: true, PausePrio: 255, inPort: 65535}).state(codec.Save(w))
	if !bytes.Equal(w.Finish(), raw(255, 255, 65535)) {
		t.Fatal("raw no longer writes what Packet.state writes: update it")
	}
	for _, tc := range []struct {
		prio, pausePrio, inPort int
		ok                      bool
	}{
		{255, 255, 65535, true},
		{256, 0, 0, false},
		{-1, 0, 0, false},
		{0, 256, 0, false},
		{0, -1, 0, false},
		{0, 0, 65536, false},
		{0, 0, -1, false},
	} {
		r, err := codec.NewReader(raw(tc.prio, tc.pausePrio, tc.inPort))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		var p *Packet
		New(1).packet(codec.Load(r), &p)
		if got := r.Err() == nil; got != tc.ok {
			t.Errorf("prio %d, pause prio %d, ingress port %d: read error %v, want ok=%v", tc.prio, tc.pausePrio, tc.inPort, r.Err(), tc.ok)
		}
		if tc.ok && (p.Prio != 255 || p.PausePrio != 255 || p.inPort != 65535) {
			t.Errorf("loaded %d/%d/%d, want 255/255/65535", p.Prio, p.PausePrio, p.inPort)
		}
	}
}
