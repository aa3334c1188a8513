package tcp

import (
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

// sendTimesAudit re-checks, after every ACK and every timeout of one sender,
// that sendTimes holds one entry per segment in [sndUna, sndNext) that was
// never retransmitted, and nothing else.
type sendTimesAudit struct {
	t    *testing.T
	f    *Flow
	retx map[int64]bool // segments retransmitted at least once (Karn: no timestamp kept)

	fast, partial, rtos int
}

func auditSendTimes(t *testing.T, f *Flow) *sendTimesAudit {
	a := &sendTimesAudit{t: t, f: f, retx: map[int64]bool{}}
	// Every retransmission is of the segment at sndUna as it stands when the
	// handler returns: fast retransmit leaves sndUna alone, a partial ACK
	// has just advanced it to the hole, a timeout resends from it.
	f.Src.Unregister(f.ID)
	f.Src.Register(f.ID, netsim.EndpointFunc(func(pkt *netsim.Packet) {
		before, una, rec := f.Retransmits, f.sndUna, f.inRecovery
		f.senderHandle(pkt)
		if f.Retransmits > before {
			a.retx[f.sndUna] = true
			if f.sndUna > una && rec {
				a.partial++
			} else {
				a.fast++
			}
		}
		a.check("ACK")
	}))
	f.onRTOFn = func() {
		f.onRTO()
		a.retx[f.sndUna] = true
		a.rtos++
		a.check("RTO")
	}
	f.armRTO() // re-arm through the wrapper
	return a
}

func (a *sendTimesAudit) check(when string) {
	a.t.Helper()
	f, mtu := a.f, int64(a.f.P.MTU)
	if f.acked {
		if len(f.sendTimes) != 0 {
			a.t.Fatalf("flow %d: %d timestamps left after the final ACK", f.ID, len(f.sendTimes))
		}
		return
	}
	want := 0
	for s := f.sndUna; s < f.sndNext; s += mtu {
		if !a.retx[s] {
			want++
		}
	}
	if len(f.sendTimes) != want {
		a.t.Fatalf("flow %d, %s at %v: %d timestamps for %d un-acked first transmissions in [%d, %d)",
			f.ID, when, f.net.Now(), len(f.sendTimes), want, f.sndUna, f.sndNext)
	}
	for s := range f.sendTimes {
		if s < f.sndUna || s >= f.sndNext || s%mtu != 0 || a.retx[s] {
			a.t.Fatalf("flow %d, %s at %v: stray timestamp key %d (window [%d, %d), retransmitted=%v)",
				f.ID, when, f.net.Now(), s, f.sndUna, f.sndNext, a.retx[s])
		}
	}
}

// TestSendTimesHoldsExactlyUnackedFirstTransmissions pins what lets
// senderHandle delete acknowledged RTT timestamps by stepping sndUna,
// sndUna+MTU, ... instead of ranging over the map: every key is the sequence
// number of an MTU-aligned segment, and none survives below sndUna. The
// audit runs through fast retransmit, NewReno partial ACKs, RTO and a short
// final segment; a stale key left behind by a misaligned step would show as
// a surplus.
func TestSendTimesHoldsExactlyUnackedFirstTransmissions(t *testing.T) {
	net := netsim.New(13)
	fab := topo.Star(net, 5, topo.DefaultConfig())
	// Reno senders over a probabilistic drop band: isolated losses inside
	// large windows (fast retransmit), several per window (partial ACKs),
	// and tail or repeated losses (RTO).
	fab.Leaves[0].SetRED(red.Config{Kmin: 10 * simtime.KB, Kmax: 400 * simtime.KB, Pmax: 0.1})
	p := DefaultParams()
	p.ECN = false
	size := 2000*int64(p.MTU) + 123 // the final segment is short

	var audits []*sendTimesAudit
	for i := 0; i < 4; i++ {
		audits = append(audits, auditSendTimes(t, Start(net, fab.Hosts[i], fab.Hosts[4], size, p, nil)))
	}
	net.RunUntil(simtime.Time(2 * simtime.Second))

	var fast, partial, rtos int
	for _, a := range audits {
		if !a.f.Acked() {
			t.Fatalf("flow %d wedged: sndUna=%d of %d, retx=%d timeouts=%d", a.f.ID, a.f.sndUna, size, a.f.Retransmits, a.f.Timeouts)
		}
		fast, partial, rtos = fast+a.fast, partial+a.partial, rtos+a.rtos
	}
	if fast == 0 || partial == 0 || rtos == 0 {
		t.Fatalf("scenario too gentle: %d fast retransmits, %d partial-ACK retransmits, %d RTOs", fast, partial, rtos)
	}
	t.Logf("%d fast retransmits, %d partial-ACK retransmits, %d RTOs audited", fast, partial, rtos)
}
