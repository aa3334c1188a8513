package tcp

import (
	"slices"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support, mirroring package dcqcn: live senders and receivers
// visit their complete dynamic state, and restore constructors rebuild
// them on a freshly restored Network without construction side effects (no
// initial trySend; Params are saved verbatim). Completed halves unregister
// themselves, so only live flows appear in snapshots.

func (p *Params) state(v *codec.Visitor) {
	v.Int(&p.MTU)
	v.Int(&p.Prio)
	v.Bool(&p.ECN)
	v.F64(&p.G)
	v.Int(&p.InitCwndPkts)
	v.Int(&p.MaxCwndPkts)
	codec.Int64(v, &p.RTOMin)
	v.Int(&p.DupAckThresh)
}

// seqMap visits a map keyed by sequence number as (seq, value) pairs in
// ascending seq order, so identical states produce identical bytes.
// Reading, it replaces *m with the pairs read.
func seqMap[V ~int | ~int64](v *codec.Visitor, what string, m *map[int64]V) {
	seqs := make([]int64, 0, len(*m))
	//acclint:ignore determinism@1 key collection followed by sort is iteration-order-independent
	for s := range *m {
		seqs = append(seqs, s)
	}
	slices.Sort(seqs)
	n := v.Count(what, len(seqs), 2)
	if v.Reading() {
		*m = make(map[int64]V, n)
		seqs = make([]int64, n)
	}
	for _, s := range seqs {
		x := (*m)[s]
		v.I64(&s)
		codec.Int64(v, &x)
		if v.Reading() {
			(*m)[s] = x
		}
	}
}

// State visits the sender's dynamic state; RestoreSender reads it into a
// new Flow.
func (f *Flow) State(v *codec.Visitor) {
	v.Tag("tcp-tx")
	codec.Uint64(v, &f.ID)
	v.Int(&f.DstID)
	v.I64(&f.Size)
	f.P.state(v)
	codec.Int64(v, &f.Start)
	codec.Int64(v, &f.End)
	v.I64(&f.sndUna)
	v.I64(&f.sndNext)
	v.F64(&f.cwnd)
	v.F64(&f.ssthresh)
	v.Bool(&f.inRecovery)
	v.I64(&f.recoverEnd)
	v.Int(&f.dupAcks)
	v.F64(&f.alpha)
	v.I64(&f.ackedBytes)
	v.I64(&f.markedBytes)
	v.I64(&f.winEnd)
	v.I64(&f.cwndCutSeq)
	codec.Int64(v, &f.srtt)
	codec.Int64(v, &f.rttvar)
	v.U64(&f.Retransmits)
	v.U64(&f.Timeouts)
	v.U64(&f.ECEAcks)
	seqMap(v, "send times", &f.sendTimes)
	f.net.Q.Timer(v, &f.rtoEv, f.onRTOFn)
}

// RestoreSender rebuilds a live sender from v on src, registering its
// endpoint and re-arming the RTO at its recorded slot. No packets are sent.
func RestoreSender(net *netsim.Network, src *netsim.Host, v *codec.Visitor) *Flow {
	f := &Flow{Src: src, net: net}
	f.trySendFn = f.trySend
	f.onRTOFn = f.onRTO
	if f.State(v); v.Err() != nil {
		return nil
	}
	src.Register(f.ID, netsim.EndpointFunc(f.senderHandle))
	return f
}

// State visits the receiver's dynamic state; RestoreReceiver reads it into
// a new Receiver.
func (rx *Receiver) State(v *codec.Visitor) {
	v.Tag("tcp-rx")
	codec.Uint64(v, &rx.ID)
	v.Int(&rx.SrcID)
	v.I64(&rx.Size)
	rx.P.state(v)
	codec.Int64(v, &rx.Start)
	v.I64(&rx.rcvNext)
	seqMap(v, "out-of-order segments", &rx.ooo)
}

// RestoreReceiver rebuilds a live receiver from v on dst. onDone is the
// world's completion callback, re-bound by the caller.
func RestoreReceiver(dst *netsim.Host, onDone func(*Receiver), v *codec.Visitor) *Receiver {
	rx := &Receiver{Dst: dst, net: dst.Net(), onDone: onDone}
	if rx.State(v); v.Err() != nil {
		return nil
	}
	dst.Register(rx.ID, netsim.EndpointFunc(rx.handle))
	return rx
}
