// Package tcp implements a windowed transport in the DCTCP family for the
// paper's TCP/RDMA coexistence studies (§5.2). It provides:
//
//   - DCTCP mode: ECN-capable data, per-window marked-fraction estimate
//     alpha, and the cwnd ← cwnd·(1−alpha/2) reduction once per window;
//   - Reno mode (ECN disabled): drop-tail behaviour with fast retransmit and
//     multiplicative decrease, modelling the "TCP becomes greedy and may
//     occupy the whole buffer" regime the paper describes.
//
// The control loop is ACK-clocked and therefore reacts on RTT timescales —
// an order of magnitude slower than DCQCN's CNP loop — which is exactly the
// asymmetry behind the unfair buffer sharing ACC corrects in Figure 8.
//
// As in package dcqcn, the sender (Flow) and receiver (Receiver) are
// separate objects, each owned by its host's Network: Start wires both onto
// one Network for sequential runs, while sharded runs (internal/psim) start
// each half in the shard owning its host. The halves communicate only
// through packets — the sender completes on the final cumulative ACK, the
// receiver on the final data byte — so neither ever reaches into the
// other's shard.
package tcp

import (
	"github.com/accnet/acc/internal/eventq"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

// Params configures a TCP flow.
type Params struct {
	MTU  int
	Prio int

	ECN bool    // DCTCP marking feedback; false = Reno drop-only
	G   float64 // DCTCP alpha gain (typically 1/16)

	InitCwndPkts int
	MaxCwndPkts  int // cap on window (packets); 0 = unlimited
	RTOMin       simtime.Duration
	DupAckThresh int
}

// DefaultParams returns DCTCP-style defaults for datacenter RTTs.
func DefaultParams() Params {
	return Params{
		MTU:          netsim.DefaultMTU,
		Prio:         0,
		ECN:          true,
		G:            1.0 / 16,
		InitCwndPkts: 10,
		RTOMin:       simtime.Millisecond,
		DupAckThresh: 3,
	}
}

// Flow is the sender of one TCP connection transferring Size bytes from Src
// to the host addressed by DstID.
type Flow struct {
	ID    netsim.FlowID
	Src   *netsim.Host
	DstID int
	Size  int64
	P     Params

	Start simtime.Time
	End   simtime.Time

	net *netsim.Network

	// Sender state (bytes).
	sndUna     int64   // oldest unacknowledged
	sndNext    int64   // next new byte to send
	cwnd       float64 // congestion window, bytes
	ssthresh   float64
	inRecovery bool
	recoverEnd int64
	dupAcks    int

	// DCTCP state.
	alpha       float64
	ackedBytes  int64 // bytes acked in current observation window
	markedBytes int64
	winEnd      int64 // sndUna value that closes the observation window
	cwndCutSeq  int64 // suppress multiple cuts per window

	// RTT estimation.
	srtt, rttvar simtime.Duration
	rtoEv        *eventq.Event
	sendTimes    map[int64]simtime.Time // seq -> first-send time (for RTT)

	// Counters.
	Retransmits uint64
	Timeouts    uint64
	ECEAcks     uint64

	// acked marks sender-side completion: the cumulative ACK covering Size
	// arrived and the sender tore down. Distinct from the receiver's done —
	// the receiver finishes half an RTT earlier, on the final data byte.
	//acclint:ignore snapcover false while the sender half is live, and only live senders (!Acked) are saved
	acked bool

	// rx is the paired receiver when both halves share a Network
	// (sequential Start); nil for split sharded starts.
	//acclint:ignore snapcover sequential-start accessor shortcut; restored flows take the split registry path and drivers read completion from Applied.End
	rx *Receiver

	// Pre-bound callbacks, created once in Start so the per-ACK / per-packet
	// paths (NIC waiter registration, RTO re-arming) don't allocate a new
	// method-value closure every time.
	trySendFn func()
	onRTOFn   func()
}

// Receiver is the receiving half of one TCP connection: it reorders data,
// emits cumulative ACKs with per-packet ECN echo, and detects completion.
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

	rcvNext int64
	ooo     map[int64]int // out-of-order segments: seq -> payload len
	//acclint:ignore snapcover false while the receiver half is live, and only live receivers (!Done) are saved
	done bool

	onDone func(*Receiver)
}

// Done reports whether the transfer completed (receiver view; see Received
// for the split-mode caveat).
func (f *Flow) Done() bool { return f.rx != nil && f.rx.done }

// Acked reports whether the sender saw the cumulative ACK for the whole
// transfer and tore down.
func (f *Flow) Acked() bool { return f.acked }

// FCT returns the completion time, valid once Done.
func (f *Flow) FCT() simtime.Duration { return f.End.Sub(f.Start) }

// Cwnd returns the congestion window in bytes.
func (f *Flow) Cwnd() float64 { return f.cwnd }

// Alpha returns the DCTCP congestion estimate.
func (f *Flow) Alpha() float64 { return f.alpha }

// Received returns contiguous bytes delivered to the receiver; valid when
// the flow was started with Start (both halves on one Network). Split
// sharded senders report 0 — delivery progress belongs to the Receiver in
// the destination shard.
func (f *Flow) Received() int64 {
	if f.rx == nil {
		return 0
	}
	return f.rx.rcvNext
}

// Received returns contiguous bytes delivered.
func (r *Receiver) Received() int64 { return r.rcvNext }

// Done reports whether all bytes arrived.
func (r *Receiver) Done() bool { return r.done }

// FCT returns the completion time, valid once Done.
func (r *Receiver) FCT() simtime.Duration { return r.End.Sub(r.Start) }

// Start opens a TCP flow of size bytes at the current virtual time, with
// both halves on the same Network.
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

// StartSender opens the sending half only, toward the host with node id
// dstID. Sharded runs start it in the shard owning src, paired with a
// StartReceiver carrying the same explicit flow id in the destination's
// shard.
func StartSender(net *netsim.Network, id netsim.FlowID, src *netsim.Host, dstID int, size int64, p Params) *Flow {
	f := &Flow{
		ID:        id,
		Src:       src,
		DstID:     dstID,
		Size:      size,
		P:         p,
		Start:     net.Now(),
		net:       net,
		cwnd:      float64(p.InitCwndPkts * p.MTU),
		ssthresh:  1 << 40,
		sendTimes: make(map[int64]simtime.Time),
	}
	if p.MaxCwndPkts > 0 {
		f.ssthresh = float64(p.MaxCwndPkts * p.MTU)
	}
	f.trySendFn = f.trySend
	f.onRTOFn = f.onRTO
	src.Register(f.ID, netsim.EndpointFunc(f.senderHandle))
	f.trySend()
	return f
}

// StartReceiver opens the receiving half only, on dst's Network. onDone, if
// non-nil, runs when the final byte arrives.
func StartReceiver(id netsim.FlowID, srcID int, dst *netsim.Host, size int64, p Params, onDone func(*Receiver)) *Receiver {
	r := &Receiver{
		ID:     id,
		Dst:    dst,
		SrcID:  srcID,
		Size:   size,
		P:      p,
		Start:  dst.Net().Now(),
		net:    dst.Net(),
		ooo:    make(map[int64]int),
		onDone: onDone,
	}
	dst.Register(r.ID, netsim.EndpointFunc(r.handle))
	return r
}

func (f *Flow) maxCwnd() float64 {
	if f.P.MaxCwndPkts > 0 {
		return float64(f.P.MaxCwndPkts * f.P.MTU)
	}
	return 1 << 40
}

// trySend transmits new data while the window and the NIC admit it.
func (f *Flow) trySend() {
	if f.acked {
		return
	}
	for f.sndNext < f.Size && f.sndNext < f.sndUna+int64(f.cwnd) {
		if !f.Src.Port.CanInject(f.P.Prio) {
			f.Src.Port.WhenReady(f.P.Prio, f)
			return
		}
		payload := f.P.MTU
		if rem := f.Size - f.sndNext; int64(payload) > rem {
			payload = int(rem)
		}
		f.emit(f.sndNext, payload, false)
		f.sndNext += int64(payload)
	}
}

// emit sends one segment.
func (f *Flow) emit(seq int64, payload int, retx bool) {
	pkt := f.net.AllocPacket()
	pkt.Kind = netsim.KindData
	pkt.Flow = f.ID
	pkt.Src = f.Src.ID()
	pkt.Dst = f.DstID
	pkt.Prio = uint8(f.P.Prio)
	pkt.Size = payload + netsim.DataHeaderBytes
	pkt.Seq = seq
	pkt.FlowBytes = f.Size
	pkt.ECT = f.P.ECN
	pkt.Retx = retx
	pkt.Last = seq+int64(payload) >= f.Size
	if retx {
		f.Retransmits++
		delete(f.sendTimes, seq) // Karn: no RTT sample from retransmits
	} else if _, seen := f.sendTimes[seq]; !seen {
		f.sendTimes[seq] = f.net.Now()
	}
	f.Src.Send(pkt)
	f.armRTO()
}

// handle accepts data at the receiver, reorders, and emits cumulative ACKs
// that echo per-packet CE (accurate ECN feedback, as DCTCP requires).
func (r *Receiver) handle(pkt *netsim.Packet) {
	if pkt.Kind != netsim.KindData {
		return
	}
	payload := pkt.Size - netsim.DataHeaderBytes
	if pkt.Seq == r.rcvNext {
		r.rcvNext += int64(payload)
		for {
			n, ok := r.ooo[r.rcvNext]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNext)
			r.rcvNext += int64(n)
		}
	} else if pkt.Seq > r.rcvNext {
		r.ooo[pkt.Seq] = payload
	}
	ack := r.net.AllocPacket()
	ack.Kind = netsim.KindAck
	ack.Flow = r.ID
	ack.Src = r.Dst.ID()
	ack.Dst = r.SrcID
	ack.Prio = uint8(r.P.Prio)
	ack.Size = netsim.CtrlPacketBytes
	ack.Seq = r.rcvNext
	ack.ECE = pkt.CE
	// ACKs are ECN-capable so AQM marks rather than drops them; the
	// sender reads the explicit ECE echo, never the ACK's own CE bit.
	ack.ECT = true
	// AckSeq piggybacks the payload length this ACK acknowledges receipt of,
	// so the sender can attribute marked bytes for DCTCP's fraction.
	ack.FlowBytes = int64(payload)
	r.Dst.Send(ack)

	if r.rcvNext >= r.Size && !r.done {
		r.done = true
		r.End = r.net.Now()
		r.Dst.Unregister(r.ID)
		if r.onDone != nil {
			r.onDone(r)
		}
	}
}

// senderHandle processes cumulative ACKs.
func (f *Flow) senderHandle(pkt *netsim.Packet) {
	if pkt.Kind != netsim.KindAck || f.acked {
		return
	}
	if pkt.ECE {
		f.ECEAcks++
	}
	// DCTCP accounting: every ACK reports one segment's worth of bytes and
	// whether that segment was CE-marked.
	f.ackedBytes += pkt.FlowBytes
	if pkt.ECE {
		f.markedBytes += pkt.FlowBytes
	}

	switch {
	case pkt.Seq > f.sndUna:
		newly := pkt.Seq - f.sndUna
		// RTT sample from the highest in-order first-transmission.
		if ts, ok := f.sendTimes[f.sndUna]; ok {
			f.updateRTT(f.net.Now().Sub(ts))
		}
		// Keys are first-send sequence numbers of MTU-aligned segments and
		// none is left below sndUna, so the acked ones are exactly these.
		for s := f.sndUna; s < pkt.Seq; s += int64(f.P.MTU) {
			delete(f.sendTimes, s)
		}
		f.sndUna = pkt.Seq
		f.dupAcks = 0
		if f.inRecovery {
			if f.sndUna >= f.recoverEnd {
				f.inRecovery = false
			} else if f.sndUna < f.Size {
				// NewReno partial ACK: the next hole is also lost.
				payload := f.P.MTU
				if rem := f.Size - f.sndUna; int64(payload) > rem {
					payload = int(rem)
				}
				f.emit(f.sndUna, payload, true)
			}
		}
		f.growCwnd(float64(newly))
		f.dctcpWindowUpdate()
		if f.sndUna >= f.Size {
			// Final cumulative ACK: the sender's job is over. Completion
			// time (End) was already mirrored from the receiver in
			// sequential runs; a split sender records its own.
			f.senderTeardown()
			return
		}
		f.armRTO()
	case pkt.Seq == f.sndUna && f.sndNext > f.sndUna:
		f.dupAcks++
		if f.dupAcks == f.P.DupAckThresh && !f.inRecovery {
			f.fastRetransmit()
		}
	}
	if f.P.ECN && pkt.ECE {
		f.maybeECNCut()
	}
	f.trySend()
}

// growCwnd applies slow start / congestion avoidance for newly acked bytes.
func (f *Flow) growCwnd(newly float64) {
	if f.inRecovery {
		return
	}
	mtu := float64(f.P.MTU)
	if f.cwnd < f.ssthresh {
		f.cwnd += newly // slow start
	} else {
		f.cwnd += mtu * newly / f.cwnd // ~1 MTU per RTT
	}
	if m := f.maxCwnd(); f.cwnd > m {
		f.cwnd = m
	}
}

// dctcpWindowUpdate closes an observation window once a full window of bytes
// has been acknowledged, updating alpha from the marked fraction.
func (f *Flow) dctcpWindowUpdate() {
	if !f.P.ECN || f.sndUna < f.winEnd {
		return
	}
	if f.ackedBytes > 0 {
		frac := float64(f.markedBytes) / float64(f.ackedBytes)
		f.alpha = (1-f.P.G)*f.alpha + f.P.G*frac
	}
	f.ackedBytes, f.markedBytes = 0, 0
	f.winEnd = f.sndUna + int64(f.cwnd)
}

// maybeECNCut applies DCTCP's once-per-window multiplicative decrease upon
// ECN feedback.
func (f *Flow) maybeECNCut() {
	if f.sndUna < f.cwndCutSeq {
		return
	}
	f.cwnd *= 1 - f.alpha/2
	if f.cwnd < float64(f.P.MTU) {
		f.cwnd = float64(f.P.MTU)
	}
	f.ssthresh = f.cwnd
	f.cwndCutSeq = f.sndNext
}

// fastRetransmit performs Reno-style loss recovery.
func (f *Flow) fastRetransmit() {
	f.inRecovery = true
	f.recoverEnd = f.sndNext
	f.ssthresh = f.cwnd / 2
	if f.ssthresh < float64(f.P.MTU) {
		f.ssthresh = float64(f.P.MTU)
	}
	f.cwnd = f.ssthresh
	payload := f.P.MTU
	if rem := f.Size - f.sndUna; int64(payload) > rem {
		payload = int(rem)
	}
	f.emit(f.sndUna, payload, true)
}

// updateRTT maintains SRTT/RTTVAR (RFC 6298).
func (f *Flow) updateRTT(sample simtime.Duration) {
	if sample <= 0 {
		return
	}
	if f.srtt == 0 {
		f.srtt = sample
		f.rttvar = sample / 2
		return
	}
	diff := f.srtt - sample
	if diff < 0 {
		diff = -diff
	}
	f.rttvar = (3*f.rttvar + diff) / 4
	f.srtt = (7*f.srtt + sample) / 8
}

// SRTT returns the smoothed RTT estimate.
func (f *Flow) SRTT() simtime.Duration { return f.srtt }

func (f *Flow) rto() simtime.Duration {
	r := f.srtt + 4*f.rttvar
	if r < f.P.RTOMin {
		r = f.P.RTOMin
	}
	return r
}

// armRTO (re)starts the retransmission timer while data is outstanding. The
// timer's Event is reused across re-arms (every ACK lands here), so the
// steady-state path allocates nothing.
func (f *Flow) armRTO() {
	if f.sndUna >= f.Size || f.acked {
		if f.rtoEv != nil {
			f.rtoEv.Cancel()
		}
		return
	}
	f.rtoEv = f.net.Q.ResetAfter(f.rtoEv, f.rto(), f.onRTOFn)
}

// onRTO handles a retransmission timeout: collapse to one segment and resend
// from the hole.
func (f *Flow) onRTO() {
	if f.acked {
		return
	}
	f.Timeouts++
	f.net.Tracer.TCPRTO(f.net.Now(), f.Src.ID(), uint64(f.ID), f.rto())
	f.ssthresh = f.cwnd / 2
	if f.ssthresh < float64(f.P.MTU) {
		f.ssthresh = float64(f.P.MTU)
	}
	f.cwnd = float64(f.P.MTU)
	f.inRecovery = false
	f.dupAcks = 0
	payload := f.P.MTU
	if rem := f.Size - f.sndUna; int64(payload) > rem {
		payload = int(rem)
	}
	f.emit(f.sndUna, payload, true)
}

// NICReady implements netsim.Waiter: the NIC drained below its injection
// limit, so resume transmitting.
func (f *Flow) NICReady() { f.trySend() }

// WaiterID implements netsim.Waiter, identifying this sender for snapshots.
func (f *Flow) WaiterID() (uint8, netsim.FlowID) { return netsim.WaiterTCP, f.ID }

// senderTeardown cancels the RTO and unregisters the sender endpoint. It
// touches sender-shard state only.
func (f *Flow) senderTeardown() {
	f.acked = true
	if f.End == 0 {
		f.End = f.net.Now()
	}
	if f.rtoEv != nil {
		f.rtoEv.Cancel()
		f.rtoEv = nil
	}
	f.Src.Unregister(f.ID)
}
