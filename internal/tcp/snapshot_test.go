package tcp_test

import (
	"bytes"
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
	"github.com/accnet/acc/internal/tcp"
	"github.com/accnet/acc/internal/topo"
)

// tcpMidFlight builds a congested incast and stops mid-run so the
// instrumented sender carries real dynamic state: a populated
// sendTimes map, cwnd/ssthresh off their initial values, srtt samples,
// possibly recovery state; the receiver may hold out-of-order segments.
func tcpMidFlight(t *testing.T, seed int64) (*netsim.Network, *tcp.Flow, *tcp.Receiver) {
	t.Helper()
	net := netsim.New(seed)
	f := topo.Star(net, 6, topo.DefaultConfig())
	p := tcp.DefaultParams()
	size := int64(4 * simtime.MB)

	id := net.NextFlowID()
	rx := tcp.StartReceiver(id, f.Hosts[0].ID(), f.Hosts[5], size, p, nil)
	fl := tcp.StartSender(net, id, f.Hosts[0], f.Hosts[5].ID(), size, p)
	for i := 1; i < 5; i++ {
		tcp.Start(net, f.Hosts[i], f.Hosts[5], size, p, nil)
	}
	net.RunUntil(simtime.Time(600 * simtime.Microsecond))
	if rx.Done() || rx.Received() == 0 {
		t.Fatalf("flow not mid-flight: done=%v received=%d", rx.Done(), rx.Received())
	}
	return net, fl, rx
}

// TestSenderSnapshotRoundTrip is the encode∘decode identity property for
// the TCP sender, including its sorted-map serialization of sendTimes
// and the RTO timer slot.
func TestSenderSnapshotRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		_, fl, _ := tcpMidFlight(t, seed)
		w := codec.NewWriter()
		fl.State(codec.Save(w))
		img := w.Finish()

		net2 := netsim.New(seed)
		f2 := topo.Star(net2, 6, topo.DefaultConfig())
		r, err := codec.NewReader(img)
		if err != nil {
			t.Fatalf("seed %d: NewReader: %v", seed, err)
		}
		fl2 := tcp.RestoreSender(net2, f2.Hosts[0], codec.Load(r))
		if fl2 == nil || r.Err() != nil {
			t.Fatalf("seed %d: RestoreSender: %v", seed, r.Err())
		}
		if fl2.ID != fl.ID || fl2.Cwnd() != fl.Cwnd() || fl2.Alpha() != fl.Alpha() {
			t.Fatalf("seed %d: restored sender diverges: cwnd %v/%v alpha %v/%v",
				seed, fl2.Cwnd(), fl.Cwnd(), fl2.Alpha(), fl.Alpha())
		}
		w2 := codec.NewWriter()
		fl2.State(codec.Save(w2))
		if img2 := w2.Finish(); !bytes.Equal(img, img2) {
			t.Fatalf("seed %d: save∘restore∘save changed bytes (%d vs %d)", seed, len(img), len(img2))
		}
	}
}

// TestReceiverSnapshotRoundTrip: the receive side, including the
// out-of-order segment map.
func TestReceiverSnapshotRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		_, _, rx := tcpMidFlight(t, seed)
		w := codec.NewWriter()
		rx.State(codec.Save(w))
		img := w.Finish()

		net2 := netsim.New(seed)
		f2 := topo.Star(net2, 6, topo.DefaultConfig())
		r, err := codec.NewReader(img)
		if err != nil {
			t.Fatalf("seed %d: NewReader: %v", seed, err)
		}
		rx2 := tcp.RestoreReceiver(f2.Hosts[5], nil, codec.Load(r))
		if rx2 == nil || r.Err() != nil {
			t.Fatalf("seed %d: RestoreReceiver: %v", seed, r.Err())
		}
		w2 := codec.NewWriter()
		rx2.State(codec.Save(w2))
		if img2 := w2.Finish(); !bytes.Equal(img, img2) {
			t.Fatalf("seed %d: save∘restore∘save changed bytes", seed)
		}
	}
}
