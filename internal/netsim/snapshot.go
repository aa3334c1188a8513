package netsim

import (
	"fmt"
	"math/rand"

	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support for the packet engine.
//
// A Network snapshot is restored into a *freshly rebuilt* world: the same
// construction code (topology, plan application) runs again, so every
// closure, pre-bound method value, and routing table exists and is bound
// to live objects; State then clears the rebuilt event queue, restores
// counters and per-object dynamic state, re-materializes the in-flight
// packet population at its recorded (time, seq) slots, and fast-forwards
// every RNG stream to its recorded draw count. Because the streams are
// replayed — not replaced — the numeric sequences are exactly those of the
// uninterrupted run, which is what makes restore-then-run bit-identical to
// never having snapshotted.

// CountedSource wraps a rand.Source64 and counts draws. Int63 and Uint64
// advance the underlying generator by exactly one step each, so a stream
// is fully described by (derivation, draw count): restore rebuilds the
// source from the same derivation and fast-forwards the difference.
//
// A per-node stream (Network.nodeRng) starts with only its seed: the
// generator — 4.9 KB of math/rand state — is built by the first draw, and
// most nodes never draw (a host does only when a NIC queue runs ECN). A
// stream never drawn from saves a count of zero and a restore to zero skips
// nothing, so neither builds it and the image cannot tell.
type CountedSource struct {
	src rand.Source64 // nil until the first draw of a lazily seeded stream
	//acclint:ignore snapcover the stream's derivation, set again by whoever rebuilds the stream; State visits its draw count
	seed int64
	n    uint64
}

func NewCountedSource(s rand.Source) *CountedSource {
	return &CountedSource{src: s.(rand.Source64)}
}

func (c *CountedSource) source() rand.Source64 {
	if c.src == nil {
		c.src = rand.NewSource(c.seed).(rand.Source64)
	}
	return c.src
}

func (c *CountedSource) Int63() int64 {
	c.n++
	return c.source().Int63()
}

func (c *CountedSource) Uint64() uint64 {
	c.n++
	return c.source().Uint64()
}

func (c *CountedSource) Seed(seed int64) {
	if c.src != nil {
		c.src.Seed(seed)
	}
	c.seed, c.n = seed, 0
}

// maxSkip bounds how many draws a restore replays on one stream: replay is
// O(draws), so a count beyond it is refused rather than spun through. It is
// far past what any snapshotted world draws between construction and its
// snapshot (thousands to tens of thousands per stream).
const maxSkip = 1 << 24

// State visits the stream's draw count. Reading, it fast-forwards the
// stream to it. The rebuilt world must be behind the snapshot
// (construction draws are a prefix of the saved run's draws); anything else
// means the snapshot belongs to a different world.
func (c *CountedSource) State(v *codec.Visitor) {
	n := c.n
	v.U64(&n)
	if !v.Reading() || v.Err() != nil {
		return
	}
	if n < c.n || n-c.n > maxSkip {
		v.Fail("rng stream at draw %d cannot replay to snapshot draw %d (snapshot from a different world?)", c.n, n)
		return
	}
	for c.n < n {
		c.source().Uint64()
		c.n++
	}
}

// WaiterRef identifies a parked NIC waiter in a snapshot.
type WaiterRef struct {
	Kind uint8
	Flow FlowID
}

func (w *WaiterRef) state(v *codec.Visitor) {
	codec.Uint64(v, &w.Kind)
	codec.Uint64(v, &w.Flow)
}

// The fewest bytes a packet, a flight record and a parked waiter take in an
// image: one per varint and bool, which is what bounds their counts.
const (
	minPacketBytes = 15
	minFlightBytes = minPacketBytes + 2
	minWaiterBytes = 2
)

// state visits every wire-visible field of p. Prio, PausePrio and inPort
// are narrower than the Int they are saved as; a value the field cannot
// hold fails the read.
func (p *Packet) state(v *codec.Visitor) {
	codec.Int64(v, &p.Kind)
	codec.Uint64(v, &p.Flow)
	v.Int(&p.Src)
	v.Int(&p.Dst)
	codec.Int64(v, &p.Prio)
	v.Int(&p.Size)
	v.I64(&p.Seq)
	v.I64(&p.FlowBytes)
	v.Bool(&p.Last)
	v.Bool(&p.Retx)
	v.Bool(&p.ECT)
	v.Bool(&p.CE)
	v.Bool(&p.ECE)
	codec.Int64(v, &p.PausePrio)
	codec.Int64(v, &p.inPort)
}

// packet visits one live packet; reading, it first takes a pooled packet
// for *p to read into.
func (n *Network) packet(v *codec.Visitor, p **Packet) {
	if v.Reading() {
		*p = n.AllocPacket()
	}
	(*p).state(v)
}

// State visits the network's full dynamic state: event-queue counters, RNG
// draw counts, per-node buffers and counters, and every live packet
// (queued, serializing, or propagating). Reading, it restores into this
// freshly rebuilt network, whose topology must match the saved one exactly:
// nodes are visited in id order. Transport endpoints and parked NIC waiters
// are restored separately (by their owners, then ResolveWaiters).
func (n *Network) State(v *codec.Visitor) {
	v.Tag("netsim")
	n.Q.State(v)
	n.rootSrc.State(v)
	codec.Uint64(v, &n.nextFlow)
	for id, node := range n.nodes {
		switch node := node.(type) {
		case *Host:
			v.Tag("host")
			n.nodeID(v, id)
			node.state(v)
		case *Switch:
			v.Tag("switch")
			n.nodeID(v, id)
			node.state(v)
		}
		if v.Err() != nil {
			return
		}
	}
	v.Tag("endnodes")
	warm := len(n.pktFree) + n.pktOwed
	v.Int(&warm)
	v.U64(&n.pktAlloced)
	if v.Reading() {
		warm = min(warm, maxPoolWarm)
		for len(n.pktFree) < min(warm, v.Remaining()) {
			n.pktFree = append(n.pktFree, &Packet{pooled: true})
		}
		n.pktOwed = max(warm-len(n.pktFree), 0)
	}
}

// maxPoolWarm bounds the packet-pool prewarm a restore honours, and the
// bytes left in the stream bound what it allocates, for the reasons eventq
// bounds its free-list prewarm: the hint sizes an allocation but is not
// state, and a short image must not make a restore allocate much. The rest
// is owed, as there.
const maxPoolWarm = 1 << 16

// nodeID visits a node's id, which must be the rebuilt world's.
func (n *Network) nodeID(v *codec.Visitor, id int) {
	got := id
	v.Int(&got)
	if got != id {
		v.Fail("netsim: snapshot node id %d, world has %d (layout mismatch)", got, id)
	}
}

func (h *Host) state(v *codec.Visitor) {
	h.net.nodeSrc[h.id].State(v)
	h.Port.state(v)
}

func (s *Switch) state(v *codec.Visitor) {
	s.net.nodeSrc[s.id].State(v)
	v.Int(&s.totalUsed)
	for pi := range s.Ports {
		for prio := 0; prio < NumPrio; prio++ {
			v.Int(&s.ingUsed[pi][prio])
			v.Bool(&s.pauseSent[pi][prio])
		}
	}
	v.U64(&s.DropsTotal)
	v.U64(&s.MarksTotal)
	v.U64(&s.WREDDrops)
	v.U64(&s.OverflowDrops)
	v.U64(&s.RouteBlackholes)
	for _, p := range s.Ports {
		p.state(v)
	}
	if v.Reading() {
		s.downPorts = 0
		for _, p := range s.Ports {
			if p.down {
				s.downPorts++
			}
		}
	}
}

func (p *Port) state(v *codec.Visitor) {
	v.Tag("port")
	codec.Int64(v, &p.Bandwidth)
	v.Bool(&p.busy)
	v.Bool(&p.down)
	for i := 0; i < NumPrio; i++ {
		v.Bool(&p.paused[i])
		codec.Int64(v, &p.pausedSince[i])
	}
	v.Int(&p.rr)
	codec.Uint64(v, &p.txSeq)
	codec.Int64(v, &p.fidelity)
	v.U64(&p.TxBytesTotal)
	v.U64(&p.AnalyticTxBytes)
	v.U64(&p.RxBytesTotal)
	v.U64(&p.PauseRxEvents)
	v.U64(&p.PauseTxEvents)
	codec.Int64(v, &p.PausedDuration)
	v.U64(&p.BlackholedPackets)
	v.U64(&p.BlackholedBytes)
	tx := p.txPkt != nil
	v.Bool(&tx)
	if tx {
		p.net.packet(v, &p.txPkt)
		p.net.Q.CallSlot(v, &p.txAt, &p.txEvSeq, txDoneEvent, p)
	}
	arrive := arriveEvent
	if p.remote != nil {
		arrive = remoteArriveEvent
	}
	n := v.Count("flight length", p.flight.len(), minFlightBytes)
	if v.Reading() {
		p.flight.reserve(n)
	}
	for i := range n {
		if v.Reading() {
			p.flight.push(flightRec{})
		}
		rec := p.flight.ref(i)
		p.net.packet(v, &rec.pkt)
		p.net.Q.CallSlot(v, &rec.at, &rec.key, arrive, p)
	}
	for _, q := range p.Queues {
		q.state(v, p.net)
	}
}

func (q *EgressQueue) state(v *codec.Visitor, net *Network) {
	v.Tag("eq")
	q.RED.State(v)
	v.Bool(&q.ECNEnabled)
	n := v.Count("queue length", q.pkts.len(), minPacketBytes)
	if v.Reading() {
		q.pkts.reset()
		q.pkts.reserve(n)
		q.bytes = 0
	}
	for i := range n {
		if v.Reading() {
			q.pkts.push(nil)
		}
		pkt := q.pkts.ref(i)
		net.packet(v, pkt)
		if v.Reading() {
			q.bytes += (*pkt).Size
		}
	}
	v.F64(&q.byteTime)
	codec.Int64(v, &q.lastChange)
	v.Int(&q.deficit)
	v.Bool(&q.inTurn)
	v.U64(&q.TxBytes)
	v.U64(&q.AnalyticTxBytes)
	v.U64(&q.TxPackets)
	v.U64(&q.TxMarkedBytes)
	v.U64(&q.TxMarkedPkts)
	v.U64(&q.EnqBytes)
	v.U64(&q.DropPackets)
	v.U64(&q.DropBytes)
	refs := q.Parked()
	n = v.Count("parked senders", q.waiters.len(), minWaiterBytes)
	if v.Reading() {
		// Drop waiters parked by construction-time transports (hybrid
		// rebuilds start due flows at apply time); the snapshot's refs
		// replace them once ResolveWaiters has the rebuilt transports.
		q.waiters.reset()
		refs = make([]WaiterRef, n)
	}
	for i := range refs {
		refs[i].state(v)
	}
	if v.Reading() {
		q.restoreWaiters = refs
	}
}

// ResolveWaiters re-parks NIC waiters recorded in a restored snapshot,
// once the transport objects they refer to have been rebuilt. resolve maps
// a (kind, flow) identity to the live Waiter; it must succeed for every
// recorded reference.
func (n *Network) ResolveWaiters(resolve func(kind uint8, flow FlowID) Waiter) error {
	for _, node := range n.nodes {
		var ports []*Port
		switch v := node.(type) {
		case *Host:
			ports = []*Port{v.Port}
		case *Switch:
			ports = v.Ports
		default:
			continue
		}
		for _, p := range ports {
			for _, q := range p.Queues {
				q.waiters.reserve(len(q.restoreWaiters))
				for _, ref := range q.restoreWaiters {
					wt := resolve(ref.Kind, ref.Flow)
					if wt == nil {
						return fmt.Errorf("netsim: no waiter for kind %d flow %d", ref.Kind, ref.Flow)
					}
					q.waiters.push(wt)
				}
				q.restoreWaiters = q.restoreWaiters[:0]
			}
		}
	}
	return nil
}
