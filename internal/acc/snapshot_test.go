package acc

import (
	"bytes"
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
	"github.com/accnet/acc/internal/topo"
)

// trainedSystem deploys ACC on a multi-switch fabric under incast load
// and runs long enough for tuner ticks, training, and at least one
// global experience exchange — so the saved state exercises every field.
func trainedSystem(t *testing.T, seed int64) (*netsim.Network, *System) {
	t.Helper()
	net, fab := buildIncast(seed, 6)
	sys := NewSystem(net, fab.Switches(), nil, DefaultSystemConfig())
	net.RunUntil(simtime.Time(12 * simtime.Millisecond))
	var ticks int
	for _, tn := range sys.Tuners {
		ticks += tn.ticks
	}
	if ticks == 0 {
		t.Fatal("no tuner ticks; scenario exercises nothing")
	}
	return net, sys
}

// freshSystem reconstructs the same deployment the way the world restore
// protocol does: identical constructor calls on an identical fabric.
func freshSystem(t *testing.T, seed int64) (*netsim.Network, *System) {
	t.Helper()
	net, fab := buildIncast(seed, 6)
	return net, NewSystem(net, fab.Switches(), nil, DefaultSystemConfig())
}

// TestSystemSnapshotRoundTrip is the encode∘decode identity property for
// the whole ACC deployment: agents (networks + Adam + replay), tuner
// RNG positions, per-queue learning state, tick and exchange timers.
func TestSystemSnapshotRoundTrip(t *testing.T) {
	for seed := int64(60); seed <= 62; seed++ {
		_, sys := trainedSystem(t, seed)
		w := codec.NewWriter()
		sys.State(codec.Save(w))
		img := w.Finish()

		_, sys2 := freshSystem(t, seed)
		r, err := codec.NewReader(img)
		if err != nil {
			t.Fatalf("seed %d: NewReader: %v", seed, err)
		}
		sys2.State(codec.Load(r))
		if r.Err() != nil {
			t.Fatalf("seed %d: restore: %v", seed, r.Err())
		}
		if sys2.Exchanges != sys.Exchanges {
			t.Fatalf("seed %d: exchanges %d, want %d", seed, sys2.Exchanges, sys.Exchanges)
		}
		for i := range sys.Tuners {
			if sys2.Tuners[i].ticks != sys.Tuners[i].ticks ||
				sys2.Tuners[i].Inferences != sys.Tuners[i].Inferences {
				t.Fatalf("seed %d: tuner %d ticks/inferences diverge", seed, i)
			}
		}
		w2 := codec.NewWriter()
		sys2.State(codec.Save(w2))
		if img2 := w2.Finish(); !bytes.Equal(img, img2) {
			t.Fatalf("seed %d: save∘restore∘save changed bytes (%d vs %d)", seed, len(img), len(img2))
		}
	}
}

// TestTunerSnapshotRejectsMismatch: restoring onto a tuner monitoring a
// different queue count must fail loudly, not half-overlay.
func TestTunerSnapshotRejectsMismatch(t *testing.T) {
	_, sys := trainedSystem(t, 63)
	w := codec.NewWriter()
	sys.Tuners[0].state(codec.Save(w))
	img := w.Finish()

	net2 := netsim.New(63)
	fab2 := topo.Star(net2, 2, topo.DefaultConfig())
	other := NewSystem(net2, fab2.Switches(), nil, DefaultSystemConfig())
	r, err := codec.NewReader(img)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	other.Tuners[0].state(codec.Load(r))
	if r.Err() == nil {
		t.Fatal("tuner with a different queue count accepted the snapshot")
	}
}
