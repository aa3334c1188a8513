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
	net.SaveState(w)
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
			p.Prio = 1 + 2*(i%2) // both queues of the sparse weight vector
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
	if err := net2.RestoreState(r); err != nil {
		t.Fatalf("RestoreState: %v", err)
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
