package netsim

import (
	"math"
	"math/rand"

	"github.com/accnet/acc/internal/eventq"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
)

// EgressQueue is one traffic-class queue at a port, with WRED/ECN marking and
// the telemetry counters ACC's collector reads (§4.1: total bytes sent,
// number of ECN-marked packets, egress queue depth).
type EgressQueue struct {
	// Line 0 — everything push and pop touch: the FIFO, the depth and the
	// byte-time integral for exact average-queue-length telemetry (consumers
	// take (integral delta)/(window) to get mean depth over a window, which
	// the paper's reward uses instead of instantaneous depth, §3.3).
	pkts       ring[*Packet]
	bytes      int
	byteTime   float64 // ∫ qlen dt, in byte·seconds
	lastChange simtime.Time
	//acclint:ignore snapcover construction wiring: the owning Network's event queue, read for the clock
	clock *eventq.Queue

	// Line 1 — admission (Enqueue, CanInject) and the DWRR turn.
	ECNEnabled bool
	//acclint:ignore snapcover transient within one synchronous wakeWaiters call; false at every event boundary, and snapshots happen only between events
	serving bool // a waiter is being served: it may inject past the queue
	inTurn  bool // whether the queue was replenished for the current turn
	RED     red.Config
	// InjectLimit, when positive, bounds how many bytes a host-side sender
	// may keep queued here; senders use CanInject/WhenReady to pace into the
	// NIC the way per-QP rate limiters share a real NIC port. Zero means
	// unlimited (switch egress queues).
	//acclint:ignore snapcover construction config (NIC pacing bound)
	InjectLimit int
	EnqBytes    uint64 // cumulative, like the counters below
	deficit     int    // DWRR deficit counter, bytes
	//acclint:ignore snapcover construction config (queue identity)
	Prio int

	// Line 2 — what a transmission touches: the parked senders trySend
	// wakes, and the cumulative counters txDone advances (monotonic;
	// consumers take deltas).
	waiters       ring[Waiter]
	TxBytes       uint64 // bytes fully serialized onto the link
	TxPackets     uint64
	TxMarkedBytes uint64 // bytes of packets that left with CE set
	TxMarkedPkts  uint64

	// Line 3 — what a single-queue packet hop never reads.
	//acclint:ignore snapcover construction config (DWRR share)
	Weight          int    // DWRR weight; bandwidth share is Weight / sum(Weights)
	AnalyticTxBytes uint64 // wire bytes fast-forwarded in closed form (internal/hybrid)
	DropPackets     uint64 // WRED drops of non-ECT traffic
	DropBytes       uint64

	// restoreWaiters holds snapshot waiter identities between a port
	// restore and Network.ResolveWaiters (transports are rebuilt in
	// between); empty otherwise.
	restoreWaiters []WaiterRef

	// Pads the struct to a whole number of lines, so its size class hands
	// out line-aligned objects whatever classes the allocator has
	// (TestLayout).
	_ [8]byte
}

// Len returns the number of queued packets.
func (q *EgressQueue) Len() int { return q.pkts.len() }

// Bytes returns the instantaneous queue depth in bytes.
func (q *EgressQueue) Bytes() int { return q.bytes }

// Parked returns the identities of the senders waiting on this queue, in
// FIFO order.
func (q *EgressQueue) Parked() []WaiterRef {
	refs := make([]WaiterRef, 0, q.waiters.len())
	for i := 0; i < q.waiters.len(); i++ {
		kind, flow := q.waiters.at(i).WaiterID()
		refs = append(refs, WaiterRef{Kind: kind, Flow: flow})
	}
	return refs
}

// accrue integrates qlen·dt up to the current time. A step over an empty
// queue or over no elapsed time would add exactly +0 to a non-negative sum,
// so it leaves byteTime alone: the same bits without the floating-point
// step, on most pushes and pops.
func (q *EgressQueue) accrue() {
	now := q.clock.Now()
	if q.bytes != 0 && now != q.lastChange {
		q.byteTime += float64(q.bytes) * now.Sub(q.lastChange).Seconds()
	}
	q.lastChange = now
}

// ByteTimeIntegral returns ∫qlen·dt in byte·seconds up to now; divide a
// delta of this by the window length to get average queue depth.
func (q *EgressQueue) ByteTimeIntegral() float64 {
	q.accrue()
	return q.byteTime
}

func (q *EgressQueue) push(p *Packet) {
	q.accrue()
	q.pkts.push(p)
	q.bytes += p.Size
	q.EnqBytes += uint64(p.Size)
}

func (q *EgressQueue) peek() *Packet { return q.pkts.at(0) }

func (q *EgressQueue) pop() *Packet {
	q.accrue()
	p := q.pkts.pop()
	q.bytes -= p.Size
	return p
}

// Port is one direction-pair attachment point of a node: it owns the egress
// queues and the transmitter that serializes packets onto the attached link.
type Port struct {
	// Line 0 — what Enqueue and an idle-or-busy check in trySend read.
	busy   bool
	down   bool // written only by setDown, which keeps the owner's count
	paused [NumPrio]bool
	// touched and watch are the hybrid engine's change notification (see
	// Watch); Enqueue reads watch from the line it already loads for busy
	// and down (TestLayout).
	//acclint:ignore snapcover transient between hybrid ticks: set with the port's entry in Network.touched, cleared by TakeTouched; restore re-marks every link instead (hybrid.Engine.MarkAll)
	touched bool
	// fidelity is the hybrid-engine bookkeeping mode; see SetFidelity.
	fidelity Fidelity
	//acclint:ignore snapcover construction config: the watch depth a hybrid engine armed at AddLink, re-armed when restore rebuilds the engine
	watch int32
	// prioQ[prio] is one more than the index in Queues of the queue serving
	// prio, zero for a priority with no queue of its own; built once in
	// newPort.
	//acclint:ignore snapcover derived at construction from Queues
	prioQ  [NumPrio]uint8
	Queues []*EgressQueue
	//acclint:ignore snapcover construction wiring (link far end)
	Peer *Port // remote end of the link
	//acclint:ignore snapcover construction wiring: the Network that rebuilds the port
	net *Network

	// Line 1 — the rest of trySend.
	rr        int          // DWRR round-robin pointer
	Bandwidth simtime.Rate // line rate of the attached link

	// Snapshot bookkeeping for the two in-flight packet populations of a
	// port (see snapshot.go): here the packet on the transmitter (busy
	// implies txPkt non-nil; txAt/txEvSeq are its pending txDone event's
	// slot), on line 3 the packets propagating on the wire (flight).
	txPkt   *Packet
	txAt    simtime.Time
	txEvSeq uint64

	// The serialization-time memo: txMemo is the time txMemoSize bytes take
	// at txMemoRate (see txTime).
	//acclint:ignore snapcover derived: a memo keyed on the values it was computed from, so any state is a correct one
	txMemoSize int
	//acclint:ignore snapcover derived, like txMemoSize
	txMemoRate simtime.Rate
	//acclint:ignore snapcover derived, like txMemoSize
	txMemo simtime.Duration

	// Line 2 — txDone and deliver on the transmit side, and all an arrival
	// touches of the receiving port (Owner, Index, RxBytesTotal).
	//acclint:ignore snapcover construction wiring: the rebuilt port hangs off the same node
	Owner Node
	//acclint:ignore snapcover construction wiring (port slot)
	Index        int // port index within the owner
	RxBytesTotal uint64
	TxBytesTotal uint64
	//acclint:ignore snapcover construction config (link propagation)
	Delay simtime.Duration // one-way propagation delay

	// rxStream identifies the receiving (node, port) of this transmitter's
	// link — the arrival stream for eventq.KeyedSeq. txSeq counts packets
	// delivered on the link; together they give every arrival a key that
	// depends only on which link carried the packet and how many preceded it,
	// so same-nanosecond arrival ordering is identical in every engine. txSeq
	// wraps at 2^32, which only matters if that many packets of one link are
	// pending at one instant — impossible by orders of magnitude.
	//acclint:ignore snapcover derived wiring: identifies the receiving (node, port) of the link, constant for a given topology
	rxStream uint32
	txSeq    uint32
	_        [8]byte // keeps flight from straddling lines 2 and 3

	// Line 3 — the wire: deliver pushes, arrive pops. flight holds the
	// packets propagating on the link in arrival order: a local port's ring
	// is its own outbound flight (arrive events); a cross-shard port's ring
	// is its inbound flight injected by the far shard (remoteArrive events).
	// Maintenance is O(1) per packet and allocation-free once the ring has
	// grown to the link's in-flight high-water.
	flight ring[flightRec]
	// remote, when non-nil, marks the far end of this port's link as living
	// in another shard: deliver hands finished packets to it (by value)
	// instead of scheduling a local arrival, and Peer stays nil. trySend
	// reads it only for a port without a Peer.
	//acclint:ignore snapcover construction wiring: the rebuilt engine connects the cross-shard end again
	remote RemoteEnd

	// Behind the hot lines: cumulative counters a packet hop never touches.
	AnalyticTxBytes uint64 // wire bytes fast-forwarded in closed form (internal/hybrid)
	PauseRxEvents   uint64 // pause frames received (transmitter-side stalls)
	PauseTxEvents   uint64 // pause frames sent (receiver-side congestion)
	PausedDuration  simtime.Duration

	// Blackhole counters: packets lost on this transmitter because the link
	// was down when they finished serializing or when they would have
	// arrived at the peer (see SetDown).
	BlackholedPackets uint64
	BlackholedBytes   uint64
	pausedSince       [NumPrio]simtime.Time

	// Pads the struct to a whole number of lines, so its size class hands
	// out line-aligned objects: the fields alone are 352 bytes, in a size
	// class that is not (TestLayout).
	_ [32]byte
}

// dwrrQuantum is the base DWRR quantum in bytes, scaled by each queue's
// Weight.
const dwrrQuantum = 2 * DefaultMTU

// newPort creates a port with one egress queue per entry in weights
// (prio i gets weights[i]; zero-weight entries are skipped).
func newPort(net *Network, owner Node, index int, bw simtime.Rate, delay simtime.Duration, weights []int) *Port {
	p := &Port{
		Owner:     owner,
		Index:     index,
		Bandwidth: bw,
		Delay:     delay,
		net:       net,
	}
	for prio, w := range weights {
		if w <= 0 {
			continue
		}
		p.Queues = append(p.Queues, &EgressQueue{Prio: prio, Weight: w, clock: net.Q})
	}
	if len(p.Queues) == 0 {
		p.Queues = append(p.Queues, &EgressQueue{Prio: 0, Weight: 1, clock: net.Q})
	}
	for i, q := range p.Queues {
		p.prioQ[q.Prio] = uint8(i + 1)
	}
	return p
}

// Arrival-stream geometry: a stream id packs (receiving node id, receiving
// port index) into 31 bits, allowing fabrics of up to 2^20 nodes with up to
// 2^11 ports each — far beyond the 100k-host scale the roadmap targets.
const (
	arrivalPortBits = 11
	arrivalNodeBits = 20
)

// arrivalStream builds the eventq key stream for packets arriving at the
// given (node, port).
func arrivalStream(node, port int) uint32 {
	if node < 0 || node >= 1<<arrivalNodeBits || port < 0 || port >= 1<<arrivalPortBits {
		panic("netsim: node id or port index exceeds arrival-stream geometry")
	}
	return uint32(node)<<arrivalPortBits | uint32(port)
}

// Net returns the Network owning this port (for schedulers that must target
// the queue of the shard a port lives in).
func (p *Port) Net() *Network { return p.net }

// Queue returns the egress queue serving priority prio, or nil.
func (p *Port) Queue(prio int) *EgressQueue {
	if uint(prio) >= NumPrio || p.prioQ[prio] == 0 {
		return nil
	}
	return p.Queues[p.prioQ[prio]-1]
}

// Paused reports whether the given priority is PFC-paused at this port's
// transmitter.
func (p *Port) Paused(prio int) bool { return p.paused[prio] }

// IsDown reports whether the port's link is administratively down.
func (p *Port) IsDown() bool { return p.down }

// SetDown marks both ends of the link up or down (failure injection, the
// "failure scenarios" of the paper's §2.2 stress testing). Packets already
// queued stay queued; the transmitter stalls while down and resumes on
// recovery. Routing (ECMP) skips down links, so traffic reconverges onto
// the surviving paths.
//
// In-flight traffic is lost, not delivered: a packet whose serialization or
// propagation completes while the link is down is blackholed — dropped and
// counted in the transmitting port's BlackholedPackets/BlackholedBytes —
// mirroring a real cable pull, where bits on the wire never reach the far
// end. Shared-buffer accounting is still released for blackholed packets,
// and transports must recover via their own timeout/retransmission path. A
// packet only survives if the link is back up by the time it would arrive.
func (p *Port) SetDown(down bool) {
	p.setDown(down)
	p.touch()
	p.net.Tracer.LinkState(p.net.Now(), p.Owner.ID(), p.Index, down)
	if p.Peer != nil {
		p.Peer.setDown(down)
		p.Peer.touch()
	}
	if !down {
		p.trySend()
		if p.Peer != nil {
			p.Peer.trySend()
		}
	}
}

// SetEndDown marks only this end of the link up or down, without touching
// the peer. Every psim plan applier, sequential or sharded, uses it to apply
// one link fault as two per-end events — one on each owning queue, at the
// same virtual time — which is observably identical to SetDown's both-ends
// write because every down check reads the checking end's own flag
// (psim's TestEndPairsMatchSetDown).
func (p *Port) SetEndDown(down bool) {
	p.setDown(down)
	p.touch()
	p.net.Tracer.LinkState(p.net.Now(), p.Owner.ID(), p.Index, down)
	if !down {
		p.trySend()
	}
}

// setDown is the one writer of down: it keeps the owning switch's count of
// downed ports, which lets ecmpPick skip reading every candidate's flag on
// a healthy switch.
func (p *Port) setDown(down bool) {
	if p.down == down {
		return
	}
	p.down = down
	if sw, ok := p.Owner.(*Switch); ok {
		if down {
			sw.downPorts++
		} else {
			sw.downPorts--
		}
	}
}

// SetBandwidth changes the link rate of this transmitter at runtime
// (bandwidth-degradation faults: a flapping optic renegotiating a lower
// speed, or an oversubscribed virtual link). It affects packets whose
// serialization starts after the call; the packet currently on the wire
// keeps the timing it started with. The two directions of a link are
// independent — degrade the peer too for a symmetric brownout.
func (p *Port) SetBandwidth(r simtime.Rate) {
	p.Bandwidth = r
	p.touch()
}

// Watch arms the port's change notification for a hybrid-fidelity engine
// (internal/hybrid): from now on, everything that can change the engine's
// verdict on the link — a pause frame received, either end going up or down,
// a rate change, an egress queue reaching depth bytes — puts the port on its
// Network's touched list (TakeTouched), once, until the list is taken. depth
// is clamped to [1, MaxInt32]. A port nobody watches (the default) pays one
// predictable branch in Enqueue and is never listed.
func (p *Port) Watch(depth int) {
	p.watch = int32(min(max(depth, 1), math.MaxInt32))
}

// Watched reports whether a hybrid engine armed the port.
func (p *Port) Watched() bool { return p.watch != 0 }

// touch lists a watched port on its Network for the next hybrid tick. Only
// the goroutine that runs the Network's events (or the coordinator, with
// every shard quiescent) may call it, like every other Port mutation.
func (p *Port) touch() {
	if p.watch != 0 && !p.touched {
		p.touched = true
		p.net.touched = append(p.net.touched, p)
	}
}

// blackhole counts pkt as lost on the down link and retires it. Link
// blackholes get their own trace reason (distinct from WRED/overflow
// switch drops) so fault post-mortems can attribute losses to the cable
// pull rather than congestion.
func (p *Port) blackhole(pkt *Packet) {
	p.BlackholedPackets++
	p.BlackholedBytes += uint64(pkt.Size)
	p.net.Tracer.Drop(p.net.Now(), obs.DropLinkBlackhole, p.Owner.ID(), p.Index, int(pkt.Prio), uint64(pkt.Flow), pkt.Size)
	p.net.ReleasePacket(pkt)
}

// Utilization returns the fraction of capacity used over a window, given the
// byte delta observed by the caller.
func (p *Port) Utilization(bytesDelta uint64, window simtime.Duration) float64 {
	if window <= 0 || p.Bandwidth <= 0 {
		return 0
	}
	return float64(bytesDelta) * 8 / (float64(p.Bandwidth) * window.Seconds())
}

// Enqueue admits a data packet to the egress queue for its priority, applying
// WRED/ECN. It returns the verdict so the owning switch can release buffer
// accounting on drop. Control frames bypass Enqueue entirely.
func (p *Port) Enqueue(pkt *Packet, rng *rand.Rand) red.Verdict {
	q := p.Queue(int(pkt.Prio))
	if q == nil {
		// The port has no dedicated queue for this class: map the packet to
		// the default queue and normalize its priority so that downstream
		// PFC accounting and pause frames act on the class that actually
		// carries it (traffic class = egress queue).
		q = p.Queues[0]
		pkt.Prio = uint8(q.Prio)
	}
	v := red.Pass
	if q.ECNEnabled {
		v = q.RED.Admit(q.bytes, pkt.ECT, rng)
	}
	switch v {
	case red.Drop:
		q.DropPackets++
		q.DropBytes += uint64(pkt.Size)
		return v
	case red.Mark:
		pkt.CE = true
	}
	q.push(pkt)
	p.trySend()
	// After trySend: the depth a hybrid tick can observe is what stands in
	// the queue once the transmitter has taken its packet.
	if p.watch != 0 && q.bytes >= int(p.watch) {
		p.touch()
	}
	return v
}

// Waiter is a sender parked on a full NIC queue, woken in FIFO order once
// room frees up (see WhenReady). The identity pair makes the park order
// serializable: a snapshot records (kind, flow) per waiter and restore
// re-parks the rebuilt transport objects in the same order (see
// WaiterKind and snapshot.go).
type Waiter interface {
	// NICReady is called when the waiter's turn comes; it must re-check
	// CanInject and may re-register.
	NICReady()
	// WaiterID identifies the waiter for snapshots: kind is a WaiterKind
	// constant and flow the transport's flow id.
	WaiterID() (kind uint8, flow FlowID)
}

// WaiterKind values identify Waiter implementations in snapshots.
const (
	WaiterNone  uint8 = iota // unserializable (test shims)
	WaiterDCQCN              // *dcqcn.Flow
	WaiterTCP                // *tcp.Flow
)

// WaiterFunc adapts a bare function to Waiter for tests and tools that
// never snapshot; it serializes as WaiterNone and panics on restore.
type WaiterFunc func()

// NICReady implements Waiter.
func (f WaiterFunc) NICReady() { f() }

// WaiterID implements Waiter.
func (f WaiterFunc) WaiterID() (uint8, FlowID) { return WaiterNone, 0 }

// DoneWaiter is the inert waiter a restore parks in place of a sender that
// completed while still queued for its NIC (a TCP sender can be parked more
// than once, so the last cumulative ACK may find a leftover slot). The live
// run keeps such a slot until its turn comes — where NICReady finds nothing
// to send — and CanInject makes newcomers line up behind it meanwhile, so
// restore must keep it too: DoneWaiter holds the slot and the identity, and
// its turn is the same no-op.
type DoneWaiter WaiterRef

// NICReady implements Waiter.
func (DoneWaiter) NICReady() {}

// WaiterID implements Waiter.
func (d DoneWaiter) WaiterID() (uint8, FlowID) { return d.Kind, d.Flow }

// CanInject reports whether a sender may enqueue another packet at priority
// prio. Admission is FIFO-fair: while other senders are parked in the
// waiter queue, newcomers must line up behind them even if buffer space is
// momentarily free — otherwise a fast pacer re-grabs every freed slot and
// starves the rest (per-QP arbitration in real NICs is round-robin).
func (p *Port) CanInject(prio int) bool {
	q := p.Queue(prio)
	if q == nil {
		q = p.Queues[0]
	}
	if q.InjectLimit > 0 && q.bytes >= q.InjectLimit {
		return false
	}
	return q.serving || q.waiters.len() == 0
}

// WhenReady parks w until the priority's queue has room and w's turn comes
// (FIFO). NICReady must re-check CanInject and may re-register.
func (p *Port) WhenReady(prio int, w Waiter) {
	q := p.Queue(prio)
	if q == nil {
		q = p.Queues[0]
	}
	q.waiters.push(w)
}

// wakeWaiters serves parked senders in FIFO order while the queue has room.
// Each waiter may inject one or more packets; a waiter that is still
// blocked re-registers at the tail, which ends the loop because the queue
// is full again.
func (p *Port) wakeWaiters(q *EgressQueue) {
	for q.waiters.len() > 0 && (q.InjectLimit <= 0 || q.bytes < q.InjectLimit) {
		w := q.waiters.pop()
		q.serving = true
		w.NICReady()
		q.serving = false
	}
}

// setPaused updates PFC pause state for a priority and kicks the transmitter
// on resume.
func (p *Port) setPaused(prio int, paused bool) {
	if p.paused[prio] == paused {
		return
	}
	p.paused[prio] = paused
	if paused {
		p.PauseRxEvents++
		p.touch()
		p.pausedSince[prio] = p.net.Now()
	} else {
		p.PausedDuration += p.net.Now().Sub(p.pausedSince[prio])
		p.trySend()
	}
}

// nextPacket implements deficit round robin across the port's queues,
// skipping paused priorities. It returns nil when nothing is transmittable.
func (p *Port) nextPacket() (*EgressQueue, *Packet) {
	n := len(p.Queues)
	if n == 1 {
		q := p.Queues[0]
		if q.Len() == 0 || p.paused[q.Prio] {
			return nil, nil
		}
		return q, q.pop()
	}
	for i := 0; i < n; i++ {
		q := p.Queues[p.rr]
		if q.Len() > 0 && !p.paused[q.Prio] {
			if !q.inTurn {
				q.deficit += q.Weight * dwrrQuantum
				q.inTurn = true
			}
			if head := q.peek(); q.deficit >= head.Size {
				pkt := q.pop()
				q.deficit -= pkt.Size
				if q.Len() == 0 {
					q.deficit = 0
					q.inTurn = false
					p.rr = (p.rr + 1) % n
				}
				return q, pkt
			}
		}
		q.inTurn = false
		p.rr = (p.rr + 1) % n
	}
	return nil, nil
}

// trySend starts serializing the next eligible packet if the transmitter is
// idle.
func (p *Port) trySend() {
	if p.busy || (p.Peer == nil && p.remote == nil) || p.down {
		return
	}
	q, pkt := p.nextPacket()
	if pkt == nil {
		return
	}
	p.busy = true
	p.wakeWaiters(q)
	txd := p.txTime(pkt.Size)
	p.txPkt = pkt
	p.txAt = p.net.Q.Now().Add(txd)
	p.txEvSeq = p.net.Q.Seq()
	p.net.Q.CallAfter(txd, txDoneEvent, p)
}

// The callbacks of a port's two per-packet events, serialization done and
// propagation done (remoteArriveEvent: injected by the far shard, run on the
// receiving port). Plain functions, so scheduling allocates nothing. The
// argument is the port, not the packet — that is txPkt or the flight's head
// — so the calendar can warm the port ahead of the event (Warm).
func txDoneEvent(arg any)       { arg.(*Port).txDone() }
func arriveEvent(arg any)       { arg.(*Port).arrive() }
func remoteArriveEvent(arg any) { arg.(*Port).remoteArrive() }

// Warm implements eventq.Warmer for those events: it reads what txDone or
// arrive will touch first — the port's hot lines, the packet on the
// transmitter and its egress queue, the packet at the head of the flight,
// and the peer's arrival line — and writes nothing. Everything it reads
// belongs to the port's own shard.
func (p *Port) Warm() uint64 {
	s := uint64(p.rr) + p.TxBytesTotal + uint64(p.flight.len())
	if pkt := p.txPkt; pkt != nil {
		s += uint64(pkt.Size)
		if q := p.Queue(int(pkt.Prio)); q != nil {
			s += uint64(q.bytes) + q.TxPackets
		}
	}
	if p.flight.len() > 0 {
		s += uint64(p.flight.at(0).pkt.Size)
	}
	if peer := p.Peer; peer != nil {
		s += peer.RxBytesTotal
	}
	return s
}

// txTime returns the serialization time of size bytes at the current
// Bandwidth. Back-to-back packets of a port are nearly always the same size
// at the same rate, so the last answer is kept, keyed on both of the values
// it was computed from: a brownout's SetBandwidth, or a restore, changes the
// key, so no writer of Bandwidth can leave a stale time behind. The zero
// memo is correct too: TxTime(0, 0) is 0.
func (p *Port) txTime(size int) simtime.Duration {
	if size != p.txMemoSize || p.Bandwidth != p.txMemoRate {
		p.txMemoSize, p.txMemoRate = size, p.Bandwidth
		p.txMemo = simtime.TxTime(size, p.Bandwidth)
	}
	return p.txMemo
}

// txDone runs when a packet finishes serializing onto the link: it frees the
// transmitter, settles shared-buffer accounting, records telemetry, and
// hands the packet to propagation.
func (p *Port) txDone() {
	pkt := p.txPkt
	p.busy = false
	p.txPkt = nil
	if sw, ok := p.Owner.(*Switch); ok {
		sw.releaseBuffer(pkt)
	}
	if p.down {
		// The link died mid-serialization: the partial frame never
		// reaches the peer (see SetDown).
		p.blackhole(pkt)
		return
	}
	q := p.Queue(int(pkt.Prio))
	p.TxBytesTotal += uint64(pkt.Size)
	q.TxBytes += uint64(pkt.Size)
	q.TxPackets++
	if pkt.CE {
		q.TxMarkedBytes += uint64(pkt.Size)
		q.TxMarkedPkts++
	}
	p.deliver(pkt)
	p.trySend()
}

// deliver propagates a serialized packet across the link to the peer node.
// A packet whose propagation ends while the link is down is blackholed
// (see SetDown). Arrivals are scheduled with an explicit (link, packet
// count) key rather than the queue's monotonic counter, so their
// same-nanosecond tie order is a property of the traffic, not of scheduling
// history — the invariant that lets a sharded engine merge cross-shard
// arrivals bit-identically (see eventq.CallAtSeq). When the far end lives in
// another shard, ownership of the packet object transfers to the receiving
// Network (see RemoteEnd); this side never touches it again.
func (p *Port) deliver(pkt *Packet) {
	at := p.net.Q.Now().Add(p.Delay)
	key := eventq.KeyedSeq(p.rxStream, p.txSeq)
	p.txSeq++
	if p.remote != nil {
		p.remote.Deliver(pkt, at, key)
		return
	}
	p.flight.push(flightRec{pkt: pkt, at: at, key: key})
	p.net.Q.CallAtSeq(at, key, arriveEvent, p)
}

// flightRec is one packet on the wire, recorded so a snapshot can save and
// re-schedule the in-flight population exactly. The oldest record of a
// port's flight is always the one whose arrival fires next: the ring is fed
// by one transmitter, so records are pushed in (at, key) order.
type flightRec struct {
	pkt *Packet
	at  simtime.Time
	key uint64
}

// arrive runs when a packet finishes propagating: it delivers to the peer
// node, unless the link died in flight. Peer is immutable after Connect, so
// reading it at arrival time matches the value at transmission time.
func (p *Port) arrive() {
	pkt := p.flight.pop().pkt
	if p.down {
		p.blackhole(pkt)
		return
	}
	peer := p.Peer
	peer.RxBytesTotal += uint64(pkt.Size)
	peer.Owner.Receive(pkt, peer)
}

// ScheduleRemoteArrival accepts a packet that finished propagating from a
// transmitter in another shard: it adopts the Packet object into this
// (receiving) Network — the consumer eventually releases it into this
// shard's pool — and schedules the arrival at the original time with the
// original key, allocating nothing. The sync layer guarantees at is still
// in this shard's future when injection happens (conservative lookahead),
// so the keyed event lands in exactly the schedule position it holds in a
// sequential run, and guarantees the transmitter no longer touches the
// object (see RemoteEnd).
func (p *Port) ScheduleRemoteArrival(pkt *Packet, at simtime.Time, key uint64) {
	p.flight.push(flightRec{pkt: pkt, at: at, key: key})
	p.net.Q.CallAtSeq(at, key, remoteArriveEvent, p)
}

// remoteArrive is arrive for the receiving end of a cross-shard link. The
// down check reads this end's flag — equivalent to the sequential
// transmitter-side check because fault application drives both ends at the
// same virtual time — and a blackholed packet is counted on this (receiving)
// port, so fabric-wide blackhole totals match the sequential engine even
// though the attributed end differs.
func (p *Port) remoteArrive() {
	pkt := p.flight.pop().pkt
	if p.down {
		p.blackhole(pkt)
		return
	}
	p.RxBytesTotal += uint64(pkt.Size)
	p.Owner.Receive(pkt, p)
}

// SendCtrl transmits a control frame (PFC pause/resume) to the peer,
// bypassing the egress queues: PFC frames are generated by the MAC and are
// not subject to data-plane queuing. Serialization of the 64-byte frame is
// folded into the propagation delay.
func (p *Port) SendCtrl(pkt *Packet) {
	if p.Peer == nil && p.remote == nil {
		p.net.ReleasePacket(pkt)
		return
	}
	p.PauseTxEvents++
	p.deliver(pkt)
}
