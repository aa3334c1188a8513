package netsim

import (
	"math/bits"
	"math/rand"
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// ringModel drives a ring and a plain slice FIFO through the same script and
// fails on the first difference. Each script byte is one step: the low two
// bits pick push (0, 1, 2) or pop (3), so occupancy drifts upward and the
// ring both wraps and grows while wrapped; a byte with its high bit set
// instead reserves room for up to 15, which sizes an empty ring, as a
// restore does, and leaves any other alone.
type ringModel struct {
	t        testing.TB
	r        ring[int]
	ref      []int
	next     int
	high     int
	wraps    int // pushes that landed below head
	grown    int // grows that happened with head != 0
	reserved int // reserves that sized an empty ring
}

func (m *ringModel) step(op byte) {
	if n := int(op >> 2 & 15); op&0x80 != 0 {
		if m.r.len() == 0 && n > len(m.r.buf) {
			m.reserved++
			m.high = max(m.high, n)
		}
		m.r.reserve(n)
	} else if op&3 == 3 {
		if len(m.ref) == 0 {
			return
		}
		if got, want := m.r.pop(), m.ref[0]; got != want {
			m.t.Fatalf("pop = %d, want %d", got, want)
		}
		m.ref = m.ref[1:]
	} else {
		full := m.r.len() == len(m.r.buf)
		if full && m.r.head != 0 {
			m.grown++
		}
		if !full && (m.r.head+m.r.n)&uint32(len(m.r.buf)-1) < m.r.head {
			m.wraps++
		}
		m.next++
		m.r.push(m.next)
		m.ref = append(m.ref, m.next)
		m.high = max(m.high, len(m.ref))
	}
	m.check()
}

func (m *ringModel) check() {
	if m.r.len() != len(m.ref) {
		m.t.Fatalf("len = %d, want %d", m.r.len(), len(m.ref))
	}
	for i, want := range m.ref {
		if got := m.r.at(i); got != want {
			m.t.Fatalf("at(%d) = %d, want %d (head %d, cap %d)", i, got, want, m.r.head, len(m.r.buf))
		}
	}
	// Capacity is the smallest power of two that held the high-water mark.
	wantCap := 0
	if m.high > 0 {
		wantCap = 1 << bits.Len(uint(m.high-1))
	}
	if len(m.r.buf) != wantCap {
		m.t.Fatalf("cap = %d after a high-water of %d, want %d", len(m.r.buf), m.high, wantCap)
	}
	// Every slot outside the live window is zero: a popped pointer must not
	// stay reachable through the ring.
	live := 0
	for _, v := range m.r.buf {
		if v != 0 {
			live++
		}
	}
	if live != len(m.ref) {
		m.t.Fatalf("%d non-zero slots for %d live elements", live, len(m.ref))
	}
}

// TestRingMatchesSliceFIFO is the differential test: random push/pop scripts,
// checked element by element after every step, with wrap, growth while
// wrapped and a reserve that sizes an empty ring all required to have
// happened.
func TestRingMatchesSliceFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wraps, grown, reserved := 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		m := &ringModel{t: t}
		// Pop-heavy stretches alternate with push-heavy ones so head moves
		// off zero before the next growth.
		for phase := 0; phase < 8; phase++ {
			popBias := phase%2 == 1
			for i := 0; i < 40; i++ {
				op := byte(rng.Intn(4))
				if popBias && rng.Intn(2) == 0 {
					op = 3
				}
				if rng.Intn(16) == 0 {
					op = 0x80 | byte(rng.Intn(16))<<2
				}
				m.step(op)
			}
		}
		m.r.reset()
		m.ref = m.ref[:0]
		m.check() // empty, capacity kept
		wraps += m.wraps
		grown += m.grown
		reserved += m.reserved
	}
	if wraps == 0 || grown == 0 || reserved == 0 {
		t.Fatalf("scripts wrapped %d times, grew while wrapped %d times and sized an empty ring by reserving %d times: the test exercises too little",
			wraps, grown, reserved)
	}
}

// FuzzRing runs the same model over fuzzer-chosen scripts.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 3, 0, 0, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 3, 0, 3, 0, 3, 0, 0, 3, 3, 3})
	f.Add([]byte{0x80 | 9<<2, 0, 0, 0, 3, 3, 0, 3, 3, 3, 0x80 | 2<<2, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		m := &ringModel{t: t}
		for _, op := range script {
			m.step(op)
		}
	})
}

// pacedSender is a sender that always has another packet to inject, the way
// a paced flow shares a NIC: it sends when admitted, parks when not, and
// mirrors every park and wake into a plain slice FIFO shared by the senders.
type pacedSender struct {
	t      *testing.T
	net    *Network
	h, dst *Host
	flow   FlowID
	parked *[]WaiterRef
	wakes  *int
}

func (s *pacedSender) WaiterID() (uint8, FlowID) { return WaiterDCQCN, s.flow }

func (s *pacedSender) NICReady() {
	ref := *s.parked
	if len(ref) == 0 || ref[0].Flow != s.flow {
		s.t.Fatalf("flow %d woken out of FIFO order; slice FIFO holds %v", s.flow, ref)
	}
	*s.parked = ref[1:]
	*s.wakes++
	s.try()
}

func (s *pacedSender) try() {
	for s.h.Port.CanInject(0) {
		pkt := s.net.AllocPacket()
		pkt.Kind, pkt.Flow, pkt.Src, pkt.Dst, pkt.Size = KindData, s.flow, s.h.ID(), s.dst.ID(), 1048
		s.h.Send(pkt)
	}
	s.h.Port.WhenReady(0, s)
	*s.parked = append(*s.parked, WaiterRef{Kind: WaiterDCQCN, Flow: s.flow})
}

// TestWaiterRingBounded is the regression test for the waiter FIFO that grew
// without bound: it reset only once empty, and a NIC shared by several paced
// senders always has one parked, so it grew 16 bytes per park for the whole
// run. Three senders behind a one-packet inject limit park and wake 10^5
// times with at least two always parked; the ring must end at the capacity
// of its high-water, in the order a slice FIFO holds.
func TestWaiterRingBounded(t *testing.T) {
	net, h1, h2 := watchRig(0)
	q := h1.Port.Queues[0]
	q.InjectLimit = 1
	var parked []WaiterRef
	wakes, minParked, maxParked := 0, 1<<30, 0
	for f := FlowID(1); f <= 3; f++ {
		h2.Register(f, EndpointFunc(func(*Packet) {
			minParked, maxParked = min(minParked, q.waiters.len()), max(maxParked, q.waiters.len())
		}))
		(&pacedSender{t: t, net: net, h: h1, dst: h2, flow: f, parked: &parked, wakes: &wakes}).try()
	}
	sameOrder := func() {
		t.Helper()
		got := q.Parked()
		if len(got) != len(parked) {
			t.Fatalf("after %d wakes Parked() = %v, slice FIFO holds %v", wakes, got, parked)
		}
		for i := range got {
			if got[i] != parked[i] {
				t.Fatalf("after %d wakes Parked() = %v, slice FIFO holds %v", wakes, got, parked)
			}
		}
	}
	for wakes < 100000 {
		net.RunFor(100 * simtime.Microsecond)
		sameOrder()
	}
	if minParked < 2 || maxParked != 3 {
		t.Fatalf("between %d and %d senders parked, want 2..3: the FIFO emptied or the scenario changed", minParked, maxParked)
	}
	if got := len(q.waiters.buf); got != 4 {
		t.Fatalf("waiter ring capacity %d after %d park/wake cycles with at most 3 parked, want 4", got, wakes)
	}
}
