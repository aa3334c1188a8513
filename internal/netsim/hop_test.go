package netsim

import (
	"math"
	"math/rand"
	"testing"

	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// byteTimeWorld is one host whose NIC has no link, so packets pushed on its
// queue stay there until the test pops them.
func byteTimeWorld() (*Network, *EgressQueue) {
	net := New(3)
	h := NewHost(net, "h")
	return net, h.AttachPort(25*simtime.Gbps, 0, nil).Queues[0]
}

// TestByteTimeIntegralExact: accrue skips the steps that add nothing — an
// empty queue, or no time elapsed since the last change — and the integral
// must keep the bits of the formula that never skips. A randomized script of
// pushes, pops and reads, a third of them at the instant of the previous
// step and many on an empty queue, is checked bit for bit after every
// operation, across a snapshot restore halfway through.
func TestByteTimeIntegralExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net, q := byteTimeWorld()
	var ref float64
	var last simtime.Time
	refAccrue := func() {
		now := net.Now()
		ref += float64(q.bytes) * now.Sub(last).Seconds()
		last = now
	}
	skipped := 0
	for step := 0; step < 20000; step++ {
		if step == 10000 {
			w := codec.NewWriter()
			net.State(codec.Save(w))
			r, err := codec.NewReader(w.Finish())
			if err != nil {
				t.Fatal(err)
			}
			restored, rq := byteTimeWorld()
			if restored.State(codec.Load(r)); r.Err() != nil {
				t.Fatalf("restore: %v", r.Err())
			}
			net, q = restored, rq
		}
		switch rng.Intn(3) {
		case 0: // same instant
		case 1:
			net.Q.RunUntil(net.Now().Add(1))
		default:
			net.Q.RunUntil(net.Now().Add(simtime.Duration(rng.Intn(5000))))
		}
		if q.bytes == 0 || net.Now() == q.lastChange {
			skipped++
		}
		switch op := rng.Intn(5); {
		case op < 2:
			p := net.AllocPacket()
			p.Size = 64 + rng.Intn(1000)
			refAccrue()
			q.push(p)
		case op < 4:
			if q.Len() == 0 {
				refAccrue()
				q.ByteTimeIntegral()
				break
			}
			refAccrue()
			net.ReleasePacket(q.pop())
		default:
			refAccrue()
			q.ByteTimeIntegral()
		}
		if math.Float64bits(q.byteTime) != math.Float64bits(ref) || q.lastChange != last {
			t.Fatalf("step %d: byteTime %v (bits %#x) at %v, unskipped formula %v (bits %#x) at %v",
				step, q.byteTime, math.Float64bits(q.byteTime), q.lastChange, ref, math.Float64bits(ref), last)
		}
	}
	if skipped < 5000 || ref == 0 {
		t.Fatalf("%d of 20000 steps were skippable and the integral is %v: the script does not exercise the skip", skipped, ref)
	}
}

// TestBrownoutChangesTxTime: the serialization-time memo is keyed on the
// rate as well as the size, so a brownout between two packets of the same
// size must change when the second finishes — whether the rate moves
// through SetBandwidth or is written directly, as a restore writes it.
func TestBrownoutChangesTxTime(t *testing.T) {
	net, h1, h2 := watchRig(0)
	p := h1.Port
	nominal := p.Bandwidth
	size := DefaultMTU + DataHeaderBytes
	for _, tc := range []struct {
		name string
		set  func(simtime.Rate)
		rate simtime.Rate
	}{
		{"nominal", p.SetBandwidth, nominal},
		{"SetBandwidth", p.SetBandwidth, nominal / 4},
		{"written", func(r simtime.Rate) { p.Bandwidth = r }, nominal / 2},
		{"back to nominal", p.SetBandwidth, nominal},
	} {
		tc.set(tc.rate)
		h1.Send(dataPkt(h1, h2, 7, size))
		if got, want := p.txAt.Sub(net.Now()), simtime.TxTime(size, tc.rate); got != want {
			t.Errorf("%s: a %d-byte packet at %v finishes after %v, want %v", tc.name, size, tc.rate, got, want)
		}
		net.Run()
	}
}
