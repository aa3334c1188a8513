package netsim

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support for the packet engine.
//
// A Network snapshot is restored into a *freshly rebuilt* world: the same
// construction code (topology, plan application) runs again, so every
// closure, pre-bound method value, and routing table exists and is bound
// to live objects; RestoreState then clears the rebuilt event queue,
// restores counters and per-object dynamic state, re-materializes the
// in-flight packet population at its recorded (time, seq) slots, and
// fast-forwards every RNG stream to its recorded draw count. Because the
// streams are replayed — not replaced — the numeric sequences are exactly
// those of the uninterrupted run, which is what makes restore-then-run
// bit-identical to never having snapshotted.

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
	src  rand.Source64 // nil until the first draw of a lazily seeded stream
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

// Draws returns how many values have been drawn from the stream.
func (c *CountedSource) Draws() uint64 { return c.n }

// skipTo fast-forwards the stream to the target draw count. The rebuilt
// world must be behind the snapshot (construction draws are a prefix of
// the saved run's draws); anything else means the snapshot belongs to a
// different world.
func (c *CountedSource) SkipTo(target uint64) error {
	if target < c.n {
		return fmt.Errorf("rng stream at draw %d is ahead of snapshot draw %d (snapshot from a different world?)", c.n, target)
	}
	for c.n < target {
		c.source().Uint64()
		c.n++
	}
	return nil
}

// WaiterRef identifies a parked NIC waiter in a snapshot.
type WaiterRef struct {
	Kind uint8
	Flow FlowID
}

// savePacket writes every wire-visible field of p.
func savePacket(w *codec.Writer, p *Packet) {
	w.Int(int(p.Kind))
	w.U64(uint64(p.Flow))
	w.Int(p.Src)
	w.Int(p.Dst)
	w.Int(int(p.Prio))
	w.Int(p.Size)
	w.I64(p.Seq)
	w.I64(p.FlowBytes)
	w.Bool(p.Last)
	w.Bool(p.Retx)
	w.Bool(p.ECT)
	w.Bool(p.CE)
	w.Bool(p.ECE)
	w.Int(int(p.PausePrio))
	w.Int(int(p.inPort))
}

// loadPacket reads a packet saved by savePacket into a pooled object. Prio,
// PausePrio and inPort are narrower than the Int they are saved as; a value
// the field cannot hold fails the read — it is a corrupt image, not
// something to truncate into a plausible packet.
func (n *Network) loadPacket(r *codec.Reader) *Packet {
	p := n.AllocPacket()
	p.Kind = Kind(r.Int())
	p.Flow = FlowID(r.U64())
	p.Src = r.Int()
	p.Dst = r.Int()
	prio := r.Int()
	p.Size = r.Int()
	p.Seq = r.I64()
	p.FlowBytes = r.I64()
	p.Last = r.Bool()
	p.Retx = r.Bool()
	p.ECT = r.Bool()
	p.CE = r.Bool()
	p.ECE = r.Bool()
	pausePrio := r.Int()
	inPort := r.Int()
	if uint(prio) > math.MaxUint8 || uint(pausePrio) > math.MaxUint8 || uint(inPort) > math.MaxUint16 {
		r.Fail("packet prio %d, pause prio %d or ingress port %d does not fit its field", prio, pausePrio, inPort)
	}
	p.Prio, p.PausePrio, p.inPort = uint8(prio), uint8(pausePrio), uint16(inPort)
	return p
}

// SaveState writes the network's full dynamic state: event-queue counters,
// RNG draw counts, per-node buffers and counters, and every live packet
// (queued, serializing, or propagating).
func (n *Network) SaveState(w *codec.Writer) {
	w.Tag("netsim")
	n.Q.SaveState(w)
	if n.rootSrc == nil {
		panic("netsim: SaveState on a Network not built with New")
	}
	w.U64(n.rootSrc.n)
	w.U64(uint64(n.nextFlow))
	for id, node := range n.nodes {
		switch v := node.(type) {
		case *Host:
			w.Tag("host")
			w.Int(id)
			v.saveState(w)
		case *Switch:
			w.Tag("switch")
			w.Int(id)
			v.saveState(w)
		}
	}
	w.Tag("endnodes")
	w.Int(len(n.pktFree))
	w.U64(n.pktAlloced)
}

// RestoreState restores state saved by SaveState into this freshly rebuilt
// network. The rebuilt topology must match the saved one exactly; nodes are
// visited in the same id order. Transport endpoints and parked NIC waiters
// are restored separately (by their owners, then ResolveWaiters).
func (n *Network) RestoreState(r *codec.Reader) error {
	r.Expect("netsim")
	n.Q.RestoreState(r)
	if err := r.Err(); err != nil {
		return err
	}
	if err := n.rootSrc.SkipTo(r.U64()); err != nil {
		return fmt.Errorf("netsim: root rng: %w", err)
	}
	n.nextFlow = FlowID(r.U64())
	for id, node := range n.nodes {
		switch v := node.(type) {
		case *Host:
			r.Expect("host")
			if got := r.Int(); got != id && r.Err() == nil {
				return fmt.Errorf("netsim: snapshot host id %d, world has %d (layout mismatch)", got, id)
			}
			v.restoreState(r)
		case *Switch:
			r.Expect("switch")
			if got := r.Int(); got != id && r.Err() == nil {
				return fmt.Errorf("netsim: snapshot switch id %d, world has %d (layout mismatch)", got, id)
			}
			v.restoreState(r)
		}
		if err := r.Err(); err != nil {
			return err
		}
	}
	r.Expect("endnodes")
	poolWarm := r.Int()
	alloced := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	for len(n.pktFree) < poolWarm {
		n.pktFree = append(n.pktFree, &Packet{pooled: true})
	}
	n.pktAlloced = alloced
	return nil
}

func (n *Network) saveNodeRng(w *codec.Writer, id int) {
	src := n.nodeSrc[id]
	if src == nil {
		panic("netsim: node has no counted rng stream")
	}
	w.U64(src.n)
}

func (n *Network) restoreNodeRng(r *codec.Reader, id int) {
	src := n.nodeSrc[id]
	if src == nil {
		r.Fail("node %d has no counted rng stream", id)
		return
	}
	if err := src.SkipTo(r.U64()); err != nil {
		r.Fail("node %d rng: %v", id, err)
	}
}

func (h *Host) saveState(w *codec.Writer) {
	h.net.saveNodeRng(w, h.id)
	h.Port.saveState(w)
}

func (h *Host) restoreState(r *codec.Reader) {
	h.net.restoreNodeRng(r, h.id)
	h.Port.restoreState(r)
}

func (s *Switch) saveState(w *codec.Writer) {
	s.net.saveNodeRng(w, s.id)
	w.Int(s.totalUsed)
	for pi := range s.Ports {
		for prio := 0; prio < NumPrio; prio++ {
			w.Int(s.ingUsed[pi][prio])
			w.Bool(s.pauseSent[pi][prio])
		}
	}
	w.U64(s.DropsTotal)
	w.U64(s.MarksTotal)
	w.U64(s.WREDDrops)
	w.U64(s.OverflowDrops)
	w.U64(s.RouteBlackholes)
	for _, p := range s.Ports {
		p.saveState(w)
	}
}

func (s *Switch) restoreState(r *codec.Reader) {
	s.net.restoreNodeRng(r, s.id)
	s.totalUsed = r.Int()
	for pi := range s.Ports {
		for prio := 0; prio < NumPrio; prio++ {
			s.ingUsed[pi][prio] = r.Int()
			s.pauseSent[pi][prio] = r.Bool()
		}
	}
	s.DropsTotal = r.U64()
	s.MarksTotal = r.U64()
	s.WREDDrops = r.U64()
	s.OverflowDrops = r.U64()
	s.RouteBlackholes = r.U64()
	for _, p := range s.Ports {
		p.restoreState(r)
	}
}

func (p *Port) saveState(w *codec.Writer) {
	w.Tag("port")
	w.I64(int64(p.Bandwidth))
	w.Bool(p.busy)
	w.Bool(p.down)
	for i := 0; i < NumPrio; i++ {
		w.Bool(p.paused[i])
		w.I64(int64(p.pausedSince[i]))
	}
	w.Int(p.rr)
	w.U64(uint64(p.txSeq))
	w.Int(int(p.fidelity))
	w.U64(p.TxBytesTotal)
	w.U64(p.AnalyticTxBytes)
	w.U64(p.RxBytesTotal)
	w.U64(p.PauseRxEvents)
	w.U64(p.PauseTxEvents)
	w.I64(int64(p.PausedDuration))
	w.U64(p.BlackholedPackets)
	w.U64(p.BlackholedBytes)
	w.Bool(p.txPkt != nil)
	if p.txPkt != nil {
		savePacket(w, p.txPkt)
		w.I64(int64(p.txAt))
		w.U64(p.txEvSeq)
	}
	w.Int(p.flight.len())
	for i := 0; i < p.flight.len(); i++ {
		rec := p.flight.at(i)
		savePacket(w, rec.pkt)
		w.I64(int64(rec.at))
		w.U64(rec.key)
	}
	for _, q := range p.Queues {
		q.saveState(w)
	}
}

func (p *Port) restoreState(r *codec.Reader) {
	r.Expect("port")
	p.Bandwidth = simtime.Rate(r.I64())
	p.busy = r.Bool()
	p.setDown(r.Bool())
	for i := 0; i < NumPrio; i++ {
		p.paused[i] = r.Bool()
		p.pausedSince[i] = simtime.Time(r.I64())
	}
	p.rr = r.Int()
	p.txSeq = uint32(r.U64())
	p.fidelity = Fidelity(r.Int())
	p.TxBytesTotal = r.U64()
	p.AnalyticTxBytes = r.U64()
	p.RxBytesTotal = r.U64()
	p.PauseRxEvents = r.U64()
	p.PauseTxEvents = r.U64()
	p.PausedDuration = simtime.Duration(r.I64())
	p.BlackholedPackets = r.U64()
	p.BlackholedBytes = r.U64()
	if r.Bool() && r.Err() == nil {
		pkt := p.net.loadPacket(r)
		at := simtime.Time(r.I64())
		seq := r.U64()
		if r.Err() == nil {
			p.txPkt = pkt
			p.txAt = at
			p.txEvSeq = seq
			p.net.Q.RestoreCallAt(at, seq, p.txDoneFn, pkt)
		}
	}
	nFlight := r.Int()
	for i := 0; i < nFlight && r.Err() == nil; i++ {
		pkt := p.net.loadPacket(r)
		at := simtime.Time(r.I64())
		key := r.U64()
		if r.Err() != nil {
			break
		}
		p.flight.push(flightRec{pkt: pkt, at: at, key: key})
		if p.remote != nil {
			p.net.Q.RestoreCallAt(at, key, p.remoteArriveFn, pkt)
		} else {
			p.net.Q.RestoreCallAt(at, key, p.arriveFn, pkt)
		}
	}
	for _, q := range p.Queues {
		q.restoreState(r, p.net)
	}
}

func (q *EgressQueue) saveState(w *codec.Writer) {
	w.Tag("eq")
	w.Int(q.RED.Kmin)
	w.Int(q.RED.Kmax)
	w.F64(q.RED.Pmax)
	w.Bool(q.ECNEnabled)
	w.Int(q.Len())
	for i := 0; i < q.pkts.len(); i++ {
		savePacket(w, q.pkts.at(i))
	}
	w.F64(q.byteTime)
	w.I64(int64(q.lastChange))
	w.Int(q.deficit)
	w.Bool(q.inTurn)
	w.U64(q.TxBytes)
	w.U64(q.AnalyticTxBytes)
	w.U64(q.TxPackets)
	w.U64(q.TxMarkedBytes)
	w.U64(q.TxMarkedPkts)
	w.U64(q.EnqBytes)
	w.U64(q.DropPackets)
	w.U64(q.DropBytes)
	parked := q.Parked()
	w.Int(len(parked))
	for _, ref := range parked {
		w.U64(uint64(ref.Kind))
		w.U64(uint64(ref.Flow))
	}
}

func (q *EgressQueue) restoreState(r *codec.Reader, net *Network) {
	r.Expect("eq")
	q.RED.Kmin = r.Int()
	q.RED.Kmax = r.Int()
	q.RED.Pmax = r.F64()
	q.ECNEnabled = r.Bool()
	nPkts := r.Int()
	q.pkts.reset()
	q.bytes = 0
	for i := 0; i < nPkts && r.Err() == nil; i++ {
		pkt := net.loadPacket(r)
		q.pkts.push(pkt)
		q.bytes += pkt.Size
	}
	q.byteTime = r.F64()
	q.lastChange = simtime.Time(r.I64())
	q.deficit = r.Int()
	q.inTurn = r.Bool()
	q.TxBytes = r.U64()
	q.AnalyticTxBytes = r.U64()
	q.TxPackets = r.U64()
	q.TxMarkedBytes = r.U64()
	q.TxMarkedPkts = r.U64()
	q.EnqBytes = r.U64()
	q.DropPackets = r.U64()
	q.DropBytes = r.U64()
	nWait := r.Int()
	// Drop waiters parked by construction-time transports (hybrid rebuilds
	// start due flows at apply time); the snapshot's refs replace them.
	q.waiters.reset()
	q.restoreWaiters = q.restoreWaiters[:0]
	for i := 0; i < nWait && r.Err() == nil; i++ {
		q.restoreWaiters = append(q.restoreWaiters, WaiterRef{Kind: uint8(r.U64()), Flow: FlowID(r.U64())})
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

// SetNextFlowID forces the flow-id allocator (restore support for worlds
// that allocate flow ids outside plan order).
func (n *Network) SetNextFlowID(f FlowID) { n.nextFlow = f }
