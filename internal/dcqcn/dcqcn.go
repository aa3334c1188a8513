// Package dcqcn implements the DCQCN congestion-control protocol (Zhu et
// al., SIGCOMM 2015) that RDMA NICs run by default in the paper's
// datacenters. It is the "plant" that ACC's ECN tuning controls: the switch
// marks packets per the (Kmin, Kmax, Pmax) template, the notification point
// (receiver) converts marks into paced CNPs, and the reaction point (sender)
// adjusts its injection rate with the published multiplicative-decrease /
// fast-recovery / additive-increase / hyper-increase state machine.
//
// Flows are rate-paced and lossless under PFC, matching RoCEv2 behaviour.
//
// The two halves are separate objects: Flow is the reaction point and lives
// with the source host's Network; Receiver is the notification point and
// lives with the destination's. In a sequential run Start wires both onto
// the same Network; a sharded run (internal/psim) starts each half in the
// shard that owns its host, and neither half ever touches the other's state
// — they communicate only through packets on the simulated wire.
package dcqcn

import (
	"github.com/accnet/acc/internal/eventq"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

// Params holds the DCQCN knobs (the "9 parameters at end-host" of the
// paper's Observation 3). Defaults follow the DCQCN paper and common NIC
// firmware settings, with rate constants scaled to the line rate.
type Params struct {
	MTU  int // payload bytes per packet
	Prio int // traffic class for data packets

	CNPInterval simtime.Duration // NP: min spacing between CNPs per flow

	G                 float64          // alpha EWMA gain
	AlphaTimer        simtime.Duration // alpha decay interval without CNPs
	IncreaseTimer     simtime.Duration // time-based rate-increase interval
	ByteCounter       int64            // byte-based rate-increase threshold
	FastRecoverySteps int              // F: stages before additive increase

	RateAI  simtime.Rate // additive increase step
	RateHAI simtime.Rate // hyper increase step
	MinRate simtime.Rate // rate floor
	// InitRate is the starting rate; zero means the NIC line rate.
	InitRate simtime.Rate
	// ClampTargetRate mirrors the CLAMP_TGT_RATE knob: when true (the
	// DCQCN paper's pseudocode, our default), every cut sets Rt=Rc; when
	// false, Rt is reset only if the flow increased since the last cut, so
	// a chain of CNPs during one burst preserves the pre-burst target and
	// fast recovery rebounds much more aggressively.
	ClampTargetRate bool
}

// DefaultParams returns DCQCN parameters scaled to the given line rate.
func DefaultParams(line simtime.Rate) Params {
	return Params{
		MTU:               netsim.DefaultMTU,
		Prio:              3,
		CNPInterval:       50 * simtime.Microsecond,
		G:                 1.0 / 256,
		AlphaTimer:        55 * simtime.Microsecond,
		IncreaseTimer:     150 * simtime.Microsecond,
		ByteCounter:       64 * simtime.KB,
		FastRecoverySteps: 5,
		RateAI:            line / 1000, // e.g. 25Mbps at 25G (DCQCN-paper scale)
		ClampTargetRate:   true,
		RateHAI:           line / 500, // e.g. 50Mbps at 25G
		MinRate:           line / 2500,
	}
}

// Flow is the reaction point of one RDMA queue pair transferring Size bytes
// from Src to the host addressed by DstID. It holds sender-side state only;
// delivery progress lives on the Receiver.
type Flow struct {
	ID    netsim.FlowID
	Src   *netsim.Host
	DstID int
	Size  int64
	P     Params

	Start simtime.Time
	//acclint:ignore snapcover zero while the sender half is live, and only live halves are saved (Applied.State); completion re-mirrors it via the receiver callback
	End simtime.Time // mirrored from the Receiver by Start's wrapper

	net  *netsim.Network
	line simtime.Rate

	// Reaction-point state.
	rc, rt    simtime.Rate // current and target rate
	alpha     float64
	tc, bc    int   // timer / byte-counter stage counts since last cut
	incBytes  int64 // bytes since last byte-counter event
	sent      int64
	increased bool // rate increase happened since the last cut
	//acclint:ignore snapcover false while the sender half is live, and only live senders (!SenderDone) are saved
	sentAll bool // sender handed the last byte to the NIC and tore down

	paceEv  *eventq.Event
	alphaEv *eventq.Event
	incEv   *eventq.Event

	// Counters for analysis.
	CNPs     uint64 // CNPs received by the sender
	RateCuts uint64

	// rx is the paired notification point when both halves share a Network
	// (sequential Start); nil for split sharded starts.
	//acclint:ignore snapcover sequential-start accessor shortcut; restored flows take the split registry path and drivers read completion from Applied.End
	rx *Receiver

	// Pre-bound callbacks, created once in StartSender: the pacer fires per
	// packet and the alpha/increase timers fire continuously, so binding
	// method values here keeps those paths allocation-free.
	trySendFn func()
	alphaFn   func()
	incFn     func()
}

// Receiver is the notification point of one flow: it counts delivered
// bytes, converts CE marks into paced CNPs, and detects completion. It is
// owned by the destination host's Network.
type Receiver struct {
	ID    netsim.FlowID
	Dst   *netsim.Host
	SrcID int
	Size  int64
	P     Params

	Start simtime.Time
	//acclint:ignore snapcover zero while the receiver half is live, and only live receivers (!Done) are saved
	End simtime.Time // zero until complete

	net *netsim.Network

	rcvd    int64
	lastCNP simtime.Time
	cnpSent bool
	//acclint:ignore snapcover false while the receiver half is live, and only live receivers (!Done) are saved
	done bool

	// MarkedSeen counts CE-marked data packets observed at the receiver.
	MarkedSeen uint64

	onDone func(*Receiver)
}

// Rate returns the sender's current injection rate.
func (f *Flow) Rate() simtime.Rate { return f.rc }

// Alpha returns the sender's congestion estimate.
func (f *Flow) Alpha() float64 { return f.alpha }

// Sent returns bytes handed to the NIC so far.
func (f *Flow) Sent() int64 { return f.sent }

// Received returns bytes delivered so far; valid when the flow was started
// with Start (both halves on one Network). Split sharded senders report 0 —
// delivery progress belongs to the Receiver in the destination shard.
func (f *Flow) Received() int64 {
	if f.rx == nil {
		return 0
	}
	return f.rx.rcvd
}

// Done reports whether all bytes were delivered (see Received for the
// split-mode caveat).
func (f *Flow) Done() bool { return f.rx != nil && f.rx.done }

// MarkedSeen returns the receiver's count of CE-marked data packets (see
// Received for the split-mode caveat).
func (f *Flow) MarkedSeen() uint64 {
	if f.rx == nil {
		return 0
	}
	return f.rx.MarkedSeen
}

// FCT returns the flow completion time; valid once Done.
func (f *Flow) FCT() simtime.Duration { return f.End.Sub(f.Start) }

// Received returns bytes delivered so far.
func (r *Receiver) Received() int64 { return r.rcvd }

// Done reports whether all bytes were delivered.
func (r *Receiver) Done() bool { return r.done }

// FCT returns the flow completion time; valid once Done.
func (r *Receiver) FCT() simtime.Duration { return r.End.Sub(r.Start) }

// Start launches a DCQCN flow of size bytes at the current virtual time,
// with both halves on the same Network. onDone, if non-nil, runs when the
// last byte reaches the receiver.
func Start(net *netsim.Network, src, dst *netsim.Host, size int64, p Params, onDone func(*Flow)) *Flow {
	f := StartSender(net, net.NextFlowID(), src, dst.ID(), size, p)
	f.rx = StartReceiver(f.ID, src.ID(), dst, size, p, func(r *Receiver) {
		f.End = r.End
		if onDone != nil {
			onDone(f)
		}
	})
	return f
}

// StartSender launches the reaction point only, sending toward the host
// with node id dstID. Sharded runs start it in the shard owning src, paired
// with a StartReceiver carrying the same explicit flow id in the shard
// owning the destination.
func StartSender(net *netsim.Network, id netsim.FlowID, src *netsim.Host, dstID int, size int64, p Params) *Flow {
	line := src.Port.Bandwidth
	init := p.InitRate
	if init <= 0 {
		init = line
	}
	f := &Flow{
		ID:    id,
		Src:   src,
		DstID: dstID,
		Size:  size,
		P:     p,
		Start: net.Now(),
		net:   net,
		line:  line,
		rc:    init,
		rt:    init,
		alpha: 1, // per the DCQCN paper, α starts at 1: first CNP halves the rate
	}
	f.trySendFn = f.trySend
	f.alphaFn = f.alphaTick
	f.incFn = f.incTick
	src.Register(f.ID, netsim.EndpointFunc(f.senderHandle))
	f.trySend()
	return f
}

// StartReceiver launches the notification point only, on dst's Network.
// onDone, if non-nil, runs when the last byte arrives.
func StartReceiver(id netsim.FlowID, srcID int, dst *netsim.Host, size int64, p Params, onDone func(*Receiver)) *Receiver {
	r := &Receiver{
		ID:     id,
		Dst:    dst,
		SrcID:  srcID,
		Size:   size,
		P:      p,
		Start:  dst.Net().Now(),
		net:    dst.Net(),
		onDone: onDone,
	}
	dst.Register(r.ID, netsim.EndpointFunc(r.handle))
	return r
}

// trySend emits the next data packet if the NIC admits it, then re-arms the
// pacer at the current rate. The pacing timer's Event is reused across
// packets, so steady-state pacing allocates nothing.
func (f *Flow) trySend() {
	if f.sent >= f.Size {
		return
	}
	port := f.Src.Port
	if !port.CanInject(f.P.Prio) {
		port.WhenReady(f.P.Prio, f)
		return
	}
	payload := f.P.MTU
	if rem := f.Size - f.sent; int64(payload) > rem {
		payload = int(rem)
	}
	pkt := f.net.AllocPacket()
	pkt.Kind = netsim.KindData
	pkt.Flow = f.ID
	pkt.Src = f.Src.ID()
	pkt.Dst = f.DstID
	pkt.Prio = uint8(f.P.Prio)
	pkt.Size = payload + netsim.DataHeaderBytes
	pkt.Seq = f.sent
	pkt.FlowBytes = f.Size
	pkt.ECT = true
	pkt.Last = f.sent+int64(payload) >= f.Size
	size := pkt.Size
	f.Src.Send(pkt)
	f.sent += int64(payload)

	// Byte-counter stage of the rate-increase machinery.
	f.incBytes += int64(size)
	if f.incBytes >= f.P.ByteCounter {
		f.incBytes = 0
		f.increase(false)
	}

	if f.sent < f.Size {
		gap := simtime.TxTime(size, f.rc)
		f.paceEv = f.net.Q.ResetAfter(f.paceEv, gap, f.trySendFn)
	} else {
		// Last byte handed to the NIC: the reaction point's remaining work
		// (rate recovery, alpha decay) can no longer influence any packet,
		// so tear the sender down now. Late CNPs hit an unregistered flow
		// and are dropped — physically identical, and it keeps sender
		// teardown a sender-shard-local act in sharded runs.
		f.senderTeardown()
	}
}

// senderHandle processes CNPs at the reaction point.
func (f *Flow) senderHandle(pkt *netsim.Packet) {
	if pkt.Kind != netsim.KindCNP {
		return
	}
	f.CNPs++
	f.net.Tracer.CNP(f.net.Now(), f.Src.ID(), uint64(f.ID))
	f.cutRate()
}

// cutRate applies the DCQCN multiplicative decrease and resets the increase
// machinery.
func (f *Flow) cutRate() {
	f.RateCuts++
	before := f.rc
	if f.increased || f.P.ClampTargetRate {
		f.rt = f.rc
		f.increased = false
	}
	f.rc = f.rc * simtime.Rate(1-f.alpha/2)
	f.alpha = (1-f.P.G)*f.alpha + f.P.G
	if f.rc < f.P.MinRate {
		f.rc = f.P.MinRate
	}
	f.net.Tracer.RateCut(f.net.Now(), f.Src.ID(), uint64(f.ID), float64(before), float64(f.rc), f.alpha)
	f.tc, f.bc = 0, 0
	f.incBytes = 0
	f.armAlphaTimer()
	f.armIncreaseTimer()
}

func (f *Flow) armAlphaTimer() {
	f.alphaEv = f.net.Q.ResetAfter(f.alphaEv, f.P.AlphaTimer, f.alphaFn)
}

// alphaTick decays alpha toward zero while no CNPs arrive, re-arming itself
// until the estimate is negligible. The fired Event is kept on the flow for
// reuse by the next arm.
func (f *Flow) alphaTick() {
	f.alpha *= 1 - f.P.G
	if f.alpha > 1e-6 {
		f.armAlphaTimer()
	} else {
		f.alpha = 0
	}
}

func (f *Flow) armIncreaseTimer() {
	f.incEv = f.net.Q.ResetAfter(f.incEv, f.P.IncreaseTimer, f.incFn)
}

// incTick runs one timer-driven stage of the rate-recovery machinery,
// re-arming while the flow still has bytes to send or headroom to recover.
func (f *Flow) incTick() {
	f.increase(true)
	if f.sent < f.Size || f.rc < f.line {
		f.armIncreaseTimer()
	}
}

// increase runs one stage of the rate-recovery state machine. timer selects
// whether the trigger was the timer or the byte counter.
func (f *Flow) increase(timer bool) {
	if timer {
		f.tc++
	} else {
		f.bc++
	}
	fr := f.P.FastRecoverySteps
	switch {
	case f.tc > fr && f.bc > fr: // hyper increase
		i := f.tc - fr
		if f.bc-fr < i {
			i = f.bc - fr
		}
		f.rt += simtime.Rate(i) * f.P.RateHAI
	case f.tc > fr || f.bc > fr: // additive increase
		f.rt += f.P.RateAI
	default: // fast recovery: converge toward the pre-cut target
	}
	if f.rt > f.line {
		f.rt = f.line
	}
	f.increased = true
	f.rc = (f.rt + f.rc) / 2
	if f.rc > f.line {
		f.rc = f.line
	}
}

// handle is the notification point's packet entry: it counts delivered
// bytes, converts CE marks into paced CNPs, and detects completion.
func (r *Receiver) handle(pkt *netsim.Packet) {
	if pkt.Kind != netsim.KindData {
		return
	}
	r.rcvd += int64(pkt.Size - netsim.DataHeaderBytes)

	if pkt.CE {
		r.MarkedSeen++
		now := r.net.Now()
		if !r.cnpSent || now.Sub(r.lastCNP) >= r.P.CNPInterval {
			r.cnpSent = true
			r.lastCNP = now
			cnp := r.net.AllocPacket()
			cnp.Kind = netsim.KindCNP
			cnp.Flow = r.ID
			cnp.Src = r.Dst.ID()
			cnp.Dst = r.SrcID
			cnp.Prio = uint8(r.P.Prio)
			cnp.Size = netsim.CtrlPacketBytes
			// CNPs ride a protected class in RoCE deployments: model
			// that by making them ECN-capable, so WRED marks rather
			// than drops them (nothing reads CE on a CNP).
			cnp.ECT = true
			r.Dst.Send(cnp)
		}
	}

	if r.rcvd >= r.Size && !r.done {
		r.done = true
		r.End = r.net.Now()
		r.Dst.Unregister(r.ID)
		if r.onDone != nil {
			r.onDone(r)
		}
	}
}

// senderTeardown cancels the reaction point's timers and unregisters the
// sender endpoint. It touches sender-shard state only.
func (f *Flow) senderTeardown() {
	f.sentAll = true
	for _, ev := range []*eventq.Event{f.paceEv, f.alphaEv, f.incEv} {
		ev.Cancel()
	}
	f.paceEv, f.alphaEv, f.incEv = nil, nil, nil
	f.Src.Unregister(f.ID)
}

// SenderDone reports whether the sender handed its last byte to the NIC and
// tore down (the sender-shard notion of completion; the receiver's Done
// lands one delivery later).
func (f *Flow) SenderDone() bool { return f.sentAll }

// NICReady implements netsim.Waiter: the parked pacer's turn came.
func (f *Flow) NICReady() { f.trySend() }

// WaiterID implements netsim.Waiter.
func (f *Flow) WaiterID() (uint8, netsim.FlowID) { return netsim.WaiterDCQCN, f.ID }
