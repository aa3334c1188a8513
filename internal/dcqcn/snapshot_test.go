package dcqcn_test

import (
	"bytes"
	"testing"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// midFlight builds a congested incast and stops mid-run, returning the
// instrumented sender/receiver pair plus the network they live on. The
// contention guarantees non-trivial dynamic state: CNPs, rate cuts,
// alpha decay, armed timers.
func midFlight(t *testing.T, seed int64) (*netsim.Network, *dcqcn.Flow, *dcqcn.Receiver) {
	t.Helper()
	net, f := star(t, 6, seed)
	p := dcqcn.DefaultParams(25 * simtime.Gbps)
	size := int64(4 * simtime.MB)

	id := net.NextFlowID()
	rx := dcqcn.StartReceiver(id, f.Hosts[0].ID(), f.Hosts[5], size, p, nil)
	fl := dcqcn.StartSender(net, id, f.Hosts[0], f.Hosts[5].ID(), size, p)
	for i := 1; i < 5; i++ {
		dcqcn.Start(net, f.Hosts[i], f.Hosts[5], size, p, nil)
	}
	net.RunUntil(simtime.Time(400 * simtime.Microsecond))
	if fl.Sent() == 0 || fl.Sent() >= size {
		t.Fatalf("flow not mid-flight: sent %d of %d", fl.Sent(), size)
	}
	return net, fl, rx
}

// TestSenderSnapshotRoundTrip is the encode∘decode identity property for
// the reaction point: save a mid-flight sender, restore it onto a fresh
// fabric, save again — byte-identical, timers at their recorded slots.
func TestSenderSnapshotRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		_, fl, _ := midFlight(t, seed)
		w := codec.NewWriter()
		fl.State(codec.Save(w))
		img := w.Finish()

		net2, f2 := star(t, 6, seed)
		r, err := codec.NewReader(img)
		if err != nil {
			t.Fatalf("seed %d: NewReader: %v", seed, err)
		}
		fl2 := dcqcn.RestoreSender(net2, f2.Hosts[0], codec.Load(r))
		if fl2 == nil || r.Err() != nil {
			t.Fatalf("seed %d: RestoreSender: %v", seed, r.Err())
		}
		if fl2.ID != fl.ID || fl2.Sent() != fl.Sent() || fl2.CNPs != fl.CNPs {
			t.Fatalf("seed %d: restored sender diverges: id %v/%v sent %d/%d cnps %d/%d",
				seed, fl2.ID, fl.ID, fl2.Sent(), fl.Sent(), fl2.CNPs, fl.CNPs)
		}
		w2 := codec.NewWriter()
		fl2.State(codec.Save(w2))
		if img2 := w2.Finish(); !bytes.Equal(img, img2) {
			t.Fatalf("seed %d: save∘restore∘save changed bytes (%d vs %d)", seed, len(img), len(img2))
		}
	}
}

// TestReceiverSnapshotRoundTrip: the notification point's counterpart.
func TestReceiverSnapshotRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		_, _, rx := midFlight(t, seed)
		w := codec.NewWriter()
		rx.State(codec.Save(w))
		img := w.Finish()

		_, f2 := star(t, 6, seed)
		r, err := codec.NewReader(img)
		if err != nil {
			t.Fatalf("seed %d: NewReader: %v", seed, err)
		}
		rx2 := dcqcn.RestoreReceiver(f2.Hosts[5], nil, codec.Load(r))
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
