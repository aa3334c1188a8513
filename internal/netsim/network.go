package netsim

import (
	"math/rand"

	"github.com/accnet/acc/internal/eventq"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/simtime"
)

// Node is anything attached to the fabric: hosts and switches.
type Node interface {
	ID() int
	Name() string
	Receive(pkt *Packet, in *Port)
}

// Network owns the event queue, the node registry, the RNG, and the wiring
// between ports. One Network is one independent, deterministic simulation.
type Network struct {
	Q *eventq.Queue
	//acclint:ignore snapcover wrapper over rootSrc; the saved draw count fast-forwards the source, reproducing the stream
	Rng *rand.Rand

	// Tracer receives structured observability events (drops, marks, PFC,
	// transport and agent transitions). Nil — the default — disables
	// tracing: every hook is a nil-receiver no-op, preserving the
	// zero-allocation hot-path guarantees. A non-nil Tracer may be shared
	// between Networks running on different goroutines (it locks
	// internally).
	//acclint:ignore snapcover observability wiring, shareable across Networks; re-attached at construction
	Tracer *obs.Tracer

	//acclint:ignore snapcover construction config; restore requires a Network built from the same seed (RNG derivation depends on it)
	seed     int64
	nodes    []Node
	nextFlow FlowID

	// rootSrc and nodeSrc are the counting wrappers under Rng and the
	// per-node streams. Snapshots save each stream's draw count; restore
	// rebuilds the source from the same derivation and fast-forwards it
	// (see snapshot.go), so the numeric streams — and every golden table —
	// are unchanged by snapshot support.
	rootSrc *CountedSource
	nodeSrc map[int]*CountedSource

	// pktFree is the Packet free list backing AllocPacket/ReleasePacket. It
	// is per-Network, like the RNG: experiment runners execute independent
	// Networks in parallel (exp.forEachParallel) and must never share pools.
	pktFree []*Packet
	// pktOwed is the part of a restored pool prewarm hint the restore did
	// not allocate (see State); it stays in the hint until made on demand.
	pktOwed int

	// pktAlloced counts AllocPacket calls, for run manifests.
	pktAlloced uint64

	// touched lists this Network's watched ports whose link a hybrid engine
	// must re-check at its next tick (Port.Watch). Each Network has its own
	// list so a shard's worker only ever appends to the one it owns; the
	// engine takes all of them at the barrier. Always empty when no hybrid
	// engine watches a port here.
	//acclint:ignore snapcover transient between hybrid ticks; restore re-marks every link instead (hybrid.Engine.MarkAll), which visits a superset of what the list held
	touched []*Port

	// endpoints dispatches inbound packets to the transport endpoint bound
	// to (host, flow), for every host of this Network (Host.Register).
	//acclint:ignore snapcover transport registration; restore resets it (ResetEndpoints) and the rebuilt transports re-register
	endpoints endpointTable
}

// New creates an empty network seeded deterministically.
func New(seed int64) *Network {
	src := NewCountedSource(rand.NewSource(seed))
	return &Network{
		Q:       eventq.New(),
		Rng:     rand.New(src),
		seed:    seed,
		rootSrc: src,
		nodeSrc: make(map[int]*CountedSource),
	}
}

// Now returns the current virtual time.
func (n *Network) Now() simtime.Time { return n.Q.Now() }

// Seed returns the seed the network was created with.
func (n *Network) Seed() int64 { return n.seed }

// register adds a node at the next free id and returns it.
func (n *Network) register(node Node) int {
	return n.registerAt(node, len(n.nodes))
}

// registerAt adds a node at an explicit id, growing the registry as needed.
// Sharded builds (internal/psim) use explicit ids so a node carries the same
// id — and therefore the same routing address and per-node RNG stream — in
// every shard layout as in the sequential build. Registering over an
// occupied id panics.
func (n *Network) registerAt(node Node, id int) int {
	for len(n.nodes) <= id {
		n.nodes = append(n.nodes, nil)
	}
	if n.nodes[id] != nil {
		panic("netsim: node id registered twice")
	}
	n.nodes[id] = node
	return id
}

// nodeRng derives the per-node RNG stream for node id. Keying the stream on
// (network seed, node id) — never on a shared generator — makes each node's
// random decisions (WRED admission) a function of that node's own packet
// sequence alone, so they are identical whether the fabric runs in one event
// loop or sharded across several. The stream's generator is built by its
// first draw (see CountedSource).
func (n *Network) nodeRng(id int) *rand.Rand {
	z := uint64(n.seed) + 0x9e3779b97f4a7c15*uint64(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	src := &CountedSource{seed: int64(z ^ (z >> 31))}
	if n.nodeSrc != nil {
		n.nodeSrc[id] = src
	}
	return rand.New(src)
}

// Node returns the node with the given id (nil for an unoccupied id in a
// sparse shard-local registry).
func (n *Network) Node(id int) Node { return n.nodes[id] }

// Nodes returns all registered nodes. Shard-local networks are sparse: ids
// owned by other shards hold nil.
func (n *Network) Nodes() []Node { return n.nodes }

// PacketsAlloced returns the cumulative number of packets drawn from the
// pool (manifest "packet totals"; monotonic, counts reuse).
func (n *Network) PacketsAlloced() uint64 { return n.pktAlloced }

// TakeTouched returns the watched ports touched since the last call (see
// Port.Watch), in touch order, and re-arms them. The slice is the list's own
// backing array: read it before this Network runs another event.
func (n *Network) TakeTouched() []*Port {
	t := n.touched
	for _, p := range t {
		p.touched = false
	}
	n.touched = t[:0]
	return t
}

// ResetEndpoints removes the flow bindings of every host and sizes the table
// for the declared ids. Snapshot restore uses it to discard construction-time
// transports the overlay supersedes (hybrid applications start due flows
// synchronously at apply time) before it rebinds the live ones.
func (n *Network) ResetEndpoints() { n.endpoints.reset() }

// NextFlowID allocates a fresh globally unique flow id.
func (n *Network) NextFlowID() FlowID {
	n.nextFlow++
	return n.nextFlow
}

// DeclareFlowIDs tells n that flow ids 1..last are handed out by a plan
// (ids implied by position) rather than by NextFlowID, so its endpoint table
// indexes them instead of overflowing to a map. It only ever widens the range.
func (n *Network) DeclareFlowIDs(last FlowID) {
	n.endpoints.declared = max(n.endpoints.declared, last)
}

// Connect wires two ports as the ends of one full-duplex link. Both ports
// must have been created with matching bandwidth/delay by the caller
// (asymmetric links are permitted but unusual).
func Connect(a, b *Port) {
	a.Peer = b
	b.Peer = a
	a.rxStream = arrivalStream(b.Owner.ID(), b.Index)
	b.rxStream = arrivalStream(a.Owner.ID(), a.Index)
}

// RemoteEnd is the far end of a link whose peer port lives in another
// shard's Network. The transmitting shard calls Deliver when a packet
// finishes serializing, handing over ownership of the Packet object itself;
// the implementation (internal/psim) buffers it until the next barrier and
// injects it into the receiving shard's queue with
// Port.ScheduleRemoteArrival, preserving at and key. The object is adopted
// by the receiving Network — consumed and released into its pool — so the
// steady-state cross-shard path allocates nothing and packet objects
// migrate between shard pools at exactly the rate traffic does. The
// hand-off is race-free because the sync layer orders it: the transmitting
// worker's window happens-before the coordinator's exchange, which
// happens-before the receiving worker's next window.
type RemoteEnd interface {
	Deliver(pkt *Packet, at simtime.Time, key uint64)
}

// ConnectRemote wires p as the local end of a cross-shard link. rxNode and
// rxPort identify the receiving port in the remote shard; they determine the
// arrival stream key, so a packet crossing this link is merged into the
// remote queue in exactly the position it would occupy had both ends shared
// one queue. p keeps Peer == nil.
func ConnectRemote(p *Port, re RemoteEnd, rxNode, rxPort int) {
	p.remote = re
	p.rxStream = arrivalStream(rxNode, rxPort)
}

// Run executes events until the queue drains.
func (n *Network) Run() { n.Q.Run() }

// RunUntil executes events up to the deadline.
func (n *Network) RunUntil(t simtime.Time) { n.Q.RunUntil(t) }

// RunFor executes events for a span of virtual time from now.
func (n *Network) RunFor(d simtime.Duration) { n.RunUntil(n.Now().Add(d)) }
