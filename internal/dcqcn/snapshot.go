package dcqcn

import (
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support. A live Flow (reaction point) or Receiver (notification
// point) visits its complete dynamic state; restore constructors rebuild
// the object on a freshly restored Network — registering the endpoint and
// re-arming timers at their recorded (time, seq) slots, without the
// initial trySend or any other construction side effect. Completed halves
// unregister themselves and are never enumerated, so only live flows
// appear in snapshots.

func (p *Params) state(v *codec.Visitor) {
	v.Int(&p.MTU)
	v.Int(&p.Prio)
	codec.Int64(v, &p.CNPInterval)
	v.F64(&p.G)
	codec.Int64(v, &p.AlphaTimer)
	codec.Int64(v, &p.IncreaseTimer)
	v.I64(&p.ByteCounter)
	v.Int(&p.FastRecoverySteps)
	codec.Int64(v, &p.RateAI)
	codec.Int64(v, &p.RateHAI)
	codec.Int64(v, &p.MinRate)
	codec.Int64(v, &p.InitRate)
	v.Bool(&p.ClampTargetRate)
}

// State visits the reaction point's dynamic state; RestoreSender reads it
// into a new Flow.
func (f *Flow) State(v *codec.Visitor) {
	v.Tag("dcqcn-tx")
	codec.Uint64(v, &f.ID)
	v.Int(&f.DstID)
	v.I64(&f.Size)
	f.P.state(v)
	codec.Int64(v, &f.Start)
	codec.Int64(v, &f.line)
	codec.Int64(v, &f.rc)
	codec.Int64(v, &f.rt)
	v.F64(&f.alpha)
	v.Int(&f.tc)
	v.Int(&f.bc)
	v.I64(&f.incBytes)
	v.I64(&f.sent)
	v.Bool(&f.increased)
	v.U64(&f.CNPs)
	v.U64(&f.RateCuts)
	f.net.Q.Timer(v, &f.paceEv, f.trySendFn)
	f.net.Q.Timer(v, &f.alphaEv, f.alphaFn)
	f.net.Q.Timer(v, &f.incEv, f.incFn)
}

// RestoreSender rebuilds a live reaction point from v on src, registering
// its endpoint and re-arming its timers. No packets are sent and no RNG is
// drawn.
func RestoreSender(net *netsim.Network, src *netsim.Host, v *codec.Visitor) *Flow {
	f := &Flow{Src: src, net: net}
	f.trySendFn = f.trySend
	f.alphaFn = f.alphaTick
	f.incFn = f.incTick
	if f.State(v); v.Err() != nil {
		return nil
	}
	src.Register(f.ID, netsim.EndpointFunc(f.senderHandle))
	return f
}

// State visits the notification point's dynamic state; RestoreReceiver
// reads it into a new Receiver.
func (rx *Receiver) State(v *codec.Visitor) {
	v.Tag("dcqcn-rx")
	codec.Uint64(v, &rx.ID)
	v.Int(&rx.SrcID)
	v.I64(&rx.Size)
	rx.P.state(v)
	codec.Int64(v, &rx.Start)
	v.I64(&rx.rcvd)
	codec.Int64(v, &rx.lastCNP)
	v.Bool(&rx.cnpSent)
	v.U64(&rx.MarkedSeen)
}

// RestoreReceiver rebuilds a live notification point from v on dst. onDone
// is the world's completion callback, re-bound by the caller (it cannot be
// serialized).
func RestoreReceiver(dst *netsim.Host, onDone func(*Receiver), v *codec.Visitor) *Receiver {
	rx := &Receiver{Dst: dst, net: dst.Net(), onDone: onDone}
	if rx.State(v); v.Err() != nil {
		return nil
	}
	dst.Register(rx.ID, netsim.EndpointFunc(rx.handle))
	return rx
}
