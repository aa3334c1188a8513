package netsim

import (
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// watchRig is two hosts back to back with h1's NIC watched at depth.
func watchRig(depth int) (*Network, *Host, *Host) {
	net := New(1)
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	p1 := h1.AttachPort(25*simtime.Gbps, 600*simtime.Nanosecond, nil)
	p2 := h2.AttachPort(25*simtime.Gbps, 600*simtime.Nanosecond, nil)
	Connect(p1, p2)
	h2.Register(7, EndpointFunc(func(*Packet) {}))
	if depth > 0 {
		p1.Watch(depth)
	}
	return net, h1, h2
}

func sameSet(got []*Port, want ...*Port) bool {
	if len(got) != len(want) {
		return false
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			found = found || g == w
		}
		if !found {
			return false
		}
	}
	return true
}

// TestTouchSites drives each site that can change a hybrid engine's verdict
// on a link and checks it lists the watched port — once, until taken — and
// that a port nobody watches is never listed.
func TestTouchSites(t *testing.T) {
	pause := func(net *Network, h *Host, kind Kind) {
		pkt := net.AllocPacket()
		pkt.Kind, pkt.PausePrio = kind, 3
		h.Receive(pkt, h.Port)
	}
	sites := []struct {
		name string
		do   func(net *Network, h1, h2 *Host)
		want func(h1, h2 *Host) []*Port
	}{
		{"pause frame", func(net *Network, h1, _ *Host) { pause(net, h1, KindPause); pause(net, h1, KindResume) },
			func(h1, _ *Host) []*Port { return []*Port{h1.Port} }},
		{"SetDown marks both ends", func(_ *Network, h1, _ *Host) { h1.Port.SetDown(true) },
			func(h1, h2 *Host) []*Port { return []*Port{h1.Port, h2.Port} }},
		{"SetDown from the far end", func(_ *Network, _, h2 *Host) { h2.Port.SetDown(true) },
			func(h1, h2 *Host) []*Port { return []*Port{h1.Port, h2.Port} }},
		{"SetEndDown marks one end", func(_ *Network, h1, _ *Host) { h1.Port.SetEndDown(true) },
			func(h1, _ *Host) []*Port { return []*Port{h1.Port} }},
		{"SetBandwidth", func(_ *Network, h1, _ *Host) { h1.Port.SetBandwidth(10 * simtime.Gbps) },
			func(h1, _ *Host) []*Port { return []*Port{h1.Port} }},
	}
	for _, s := range sites {
		t.Run(s.name, func(t *testing.T) {
			net, h1, h2 := watchRig(1 << 20)
			h2.Port.Watch(1 << 20)
			s.do(net, h1, h2)
			s.do(net, h1, h2) // a second touch before the list is taken lists nothing new
			if got := net.TakeTouched(); !sameSet(got, s.want(h1, h2)...) {
				t.Fatalf("touched %d ports, want %d", len(got), len(s.want(h1, h2)))
			}
			if got := net.TakeTouched(); len(got) != 0 {
				t.Fatalf("list not emptied by TakeTouched: %d left", len(got))
			}
			s.do(net, h1, h2)
			if got := net.TakeTouched(); !sameSet(got, s.want(h1, h2)...) {
				t.Fatal("port not re-armed by TakeTouched")
			}

			net, h1, h2 = watchRig(0)
			s.do(net, h1, h2)
			if len(net.touched) != 0 || h1.Port.touched || h2.Port.touched {
				t.Fatal("an unwatched port was listed")
			}
		})
	}
	t.Run("resume frame", func(t *testing.T) {
		net, h1, _ := watchRig(1 << 20)
		pause(net, h1, KindPause)
		net.TakeTouched()
		pause(net, h1, KindResume)
		if got := net.TakeTouched(); len(got) != 0 {
			t.Fatal("a resume frame is not a trigger (PauseRxEvents does not move) but listed the port")
		}
	})
}

// TestTouchAtWatchDepth: an enqueue lists the port exactly when it leaves
// the queue at or above the watch depth.
func TestTouchAtWatchDepth(t *testing.T) {
	const size = DefaultMTU + DataHeaderBytes
	for _, tc := range []struct {
		depth, pkts int
		want        bool
	}{
		{3*size + 1, 3, false}, // one byte short
		{3 * size, 3, true},    // exactly at the depth
		{3 * size, 2, false},
		{1, 1, true},
	} {
		net, h1, h2 := watchRig(tc.depth)
		h1.Port.SetEndDown(true) // hold the transmitter so the queue fills
		net.TakeTouched()
		for i := 0; i < tc.pkts; i++ {
			h1.Send(dataPkt(h1, h2, 7, size))
		}
		if got := h1.Port.Queues[0].Bytes(); got != tc.pkts*size {
			t.Fatalf("queue holds %d bytes, want %d", got, tc.pkts*size)
		}
		if got := len(net.TakeTouched()) == 1; got != tc.want {
			t.Errorf("depth %d, %d bytes queued: touched=%v, want %v", tc.depth, tc.pkts*size, got, tc.want)
		}
	}
}
