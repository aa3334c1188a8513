// Package psim is the deterministic parallel simulation engine: it shards a
// leaf–spine fabric across cores as a conservative parallel discrete-event
// simulation, producing results bit-identical to the single-threaded engine.
//
// # Partitioning
//
// The fabric is cut along leaf↔spine links only (topo.PartitionLeafSpine):
// each shard owns a contiguous block of leaf groups (leaf switch + hosts)
// plus a round-robin share of the spines, and runs them on its own private
// netsim.Network and eventq.Queue. Host↔leaf links never cross shards.
//
// # Conservative lookahead sync
//
// All shards advance in lockstep through windows of length L — the minimum
// propagation delay of any cross-shard link (topo.Partition.Lookahead).
// Within a window [W, W+L) a shard runs its queue exclusively of the barrier
// (eventq.Queue.RunBefore); a packet finishing serialization at u ∈ [W, W+L)
// on a cross-shard link arrives at u+L ≥ W+L, i.e. never inside the window
// that produced it, so exchanging buffered cross-shard packets at the
// barrier is complete: no shard can receive an event in its past.
//
// # Bit-identical merging
//
// Cross-shard packets carry the arrival key the transmitting port computed —
// eventq.KeyedSeq(rx stream, per-link packet count) — which depends only on
// which link carried the packet and how many preceded it. Injection
// (netsim.Port.ScheduleRemoteArrival) schedules the arrival at the original
// time under the original key, so the receiving queue orders it exactly
// where a single shared queue would have: same-instant local events (small
// counter keys) first, then arrivals in fixed (stream, count) order. The
// exchange order between shards therefore cannot influence execution order,
// and every shard layout — including K=1 and the sequential engine driven at
// the same barrier cadence — replays the identical event sequence. DESIGN.md
// "Parallel simulation" gives the induction proof.
package psim

import (
	"fmt"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

// Config describes a sharded leaf–spine build.
type Config struct {
	NLeaf, HostsPerLeaf, NSpine int

	// Shards requests a shard count; the effective count is clamped by the
	// partitioner to [1, NLeaf].
	Shards int

	// Seed seeds every shard's Network identically. Per-node RNG streams are
	// keyed on (seed, node id), so a node draws the same stream no matter
	// which shard hosts it.
	Seed int64

	Topo topo.Config
}

// Shard is one logical process: a private Network owning a subset of the
// fabric's nodes, registered at their global ids (the shard-local registry
// is sparse).
type Shard struct {
	ID  int
	Net *netsim.Network

	Leaves []*netsim.Switch // local leaves, in global leaf order
	Spines []*netsim.Switch // local spines, in global spine order
	Hosts  []*netsim.Host   // local hosts, in global host order
}

// crossPkt is one packet buffered between shards: the receiving port, the
// packet object (ownership transferred from the transmitting Network; see
// netsim.RemoteEnd), and the arrival (time, key) computed by the
// transmitter. Records live in the per-direction outbox rows, which are
// reset to length zero at every exchange, so the rows' backing arrays — and
// the packet objects they point at — recycle without allocation in steady
// state.
type crossPkt struct {
	port *netsim.Port
	pkt  *netsim.Packet
	at   simtime.Time
	key  uint64
}

// outboxEnd implements netsim.RemoteEnd for one direction of one cross-shard
// link: Deliver buffers the packet in the transmitting shard's outbox row,
// which only the goroutine running that shard's window touches during it
// (the coordinator for shard 0, the shard's worker otherwise; see sync.go).
type outboxEnd struct {
	eng      *Engine
	src, dst int
	port     *netsim.Port // receiving port, in shard dst
}

func (o *outboxEnd) Deliver(pkt *netsim.Packet, at simtime.Time, key uint64) {
	box := &o.eng.outbox[o.src][o.dst]
	*box = append(*box, crossPkt{port: o.port, pkt: pkt, at: at, key: key})
}

// Engine is a sharded fabric plus its synchronization state.
type Engine struct {
	//acclint:ignore snapcover construction config; restore requires an engine built with the same Config
	Cfg Config
	//acclint:ignore snapcover construction config (partition layout; snapshots are layout-specific)
	Part topo.Partition

	Shards []*Shard
	//acclint:ignore snapcover derived at construction from Part.Lookahead
	Window simtime.Duration // barrier window = Part.Lookahead

	// Global views, indexed exactly like the sequential topo.Fabric build:
	// Hosts[l][i], Leaves[l], Spines[s]. Pointers reach into the owning
	// shard's Network; mutate only through scheduled events on that shard.
	//acclint:ignore snapcover topology wiring into the shard Networks; node state is visited by each shard Net.State
	Leaves []*netsim.Switch
	//acclint:ignore snapcover topology wiring into the shard Networks; node state is visited by each shard Net.State
	Spines []*netsim.Switch
	//acclint:ignore snapcover topology wiring into the shard Networks; node state is visited by each shard Net.State
	Hosts [][]*netsim.Host

	// Link port tables for fault targeting. HostUp[l][i] is the host NIC,
	// LeafDown[l][i] the leaf-side port of the same link; LeafUp[l][s] and
	// SpineDown[s][l] are the two ends of the leaf l ↔ spine s link.
	//acclint:ignore snapcover fault-targeting port table, construction wiring; port state is saved by the owning shard Network
	HostUp [][]*netsim.Port
	//acclint:ignore snapcover fault-targeting port table, construction wiring; port state is saved by the owning shard Network
	LeafDown [][]*netsim.Port
	//acclint:ignore snapcover fault-targeting port table, construction wiring; port state is saved by the owning shard Network
	LeafUp [][]*netsim.Port
	//acclint:ignore snapcover fault-targeting port table, construction wiring; port state is saved by the owning shard Network
	SpineDown [][]*netsim.Port

	// outbox[src][dst] buffers cross-shard packets transmitted by shard src
	// toward shard dst during the current window. Written only by src's
	// window (see sync.go) while it runs, drained only by the coordinator at
	// barriers.
	//acclint:ignore snapcover drained at every barrier; empty whenever a snapshot is legal (barriers only)
	outbox [][][]crossPkt

	// hooks run at every barrier, on the coordinator, with all shards
	// quiescent at exactly the barrier time.
	hooks []func(barrier simtime.Time)

	now simtime.Time // last barrier reached
}

// Build constructs the sharded fabric. The construction mirrors
// topo.LeafSpine exactly — same node ids, same port index order, same
// routing tables — with cross-shard leaf↔spine links wired through outboxes
// instead of port peering (see TestShardParity).
func Build(cfg Config) *Engine {
	part := topo.PartitionLeafSpine(cfg.NLeaf, cfg.HostsPerLeaf, cfg.NSpine, cfg.Shards, cfg.Topo)
	e := &Engine{
		Cfg:    cfg,
		Part:   part,
		Window: part.Lookahead,
	}
	if e.Window <= 0 {
		panic("psim: topology has a non-positive fabric delay; no conservative lookahead exists")
	}
	for k := 0; k < part.K; k++ {
		e.Shards = append(e.Shards, &Shard{ID: k, Net: netsim.New(cfg.Seed)})
	}
	e.outbox = make([][][]crossPkt, part.K)
	for i := range e.outbox {
		e.outbox[i] = make([][]crossPkt, part.K)
	}

	c := cfg.Topo

	// Spines first, as in topo.LeafSpine.
	for s := 0; s < cfg.NSpine; s++ {
		sh := e.Shards[part.SpineShard[s]]
		sw := c.SwitchAt(sh.Net, fmt.Sprintf("spine%d", s), part.SpineID(s))
		sh.Spines = append(sh.Spines, sw)
		e.Spines = append(e.Spines, sw)
	}

	e.Hosts = make([][]*netsim.Host, cfg.NLeaf)
	e.HostUp = make([][]*netsim.Port, cfg.NLeaf)
	e.LeafDown = make([][]*netsim.Port, cfg.NLeaf)
	e.LeafUp = make([][]*netsim.Port, cfg.NLeaf)
	e.SpineDown = make([][]*netsim.Port, cfg.NSpine)
	for s := range e.SpineDown {
		e.SpineDown[s] = make([]*netsim.Port, cfg.NLeaf)
	}

	for l := 0; l < cfg.NLeaf; l++ {
		sh := e.Shards[part.LeafShard[l]]
		leaf := c.SwitchAt(sh.Net, fmt.Sprintf("leaf%d", l), part.LeafID(l))
		sh.Leaves = append(sh.Leaves, leaf)
		e.Leaves = append(e.Leaves, leaf)
		for i := 0; i < cfg.HostsPerLeaf; i++ {
			h := c.AttachHostAt(sh.Net, leaf, fmt.Sprintf("h%d-%d", l, i), part.HostID(l, i))
			sh.Hosts = append(sh.Hosts, h)
			e.Hosts[l] = append(e.Hosts[l], h)
			e.HostUp[l] = append(e.HostUp[l], h.Port)
			e.LeafDown[l] = append(e.LeafDown[l], leaf.Ports[part.LeafHostPort(i)])
		}
		e.LeafUp[l] = make([]*netsim.Port, cfg.NSpine)
		for s := 0; s < cfg.NSpine; s++ {
			spine := e.Spines[s]
			up := leaf.AddPort(c.FabricBW, c.FabDelay, c.QueueWeights)
			down := spine.AddPort(c.FabricBW, c.FabDelay, c.QueueWeights)
			e.LeafUp[l][s] = up
			e.SpineDown[s][l] = down
			if !part.CrossShard(l, s) {
				netsim.Connect(up, down)
				continue
			}
			lsh, ssh := part.LeafShard[l], part.SpineShard[s]
			netsim.ConnectRemote(up, &outboxEnd{eng: e, src: lsh, dst: ssh, port: down},
				part.SpineID(s), part.SpineDownlinkPort(l))
			netsim.ConnectRemote(down, &outboxEnd{eng: e, src: ssh, dst: lsh, port: up},
				part.LeafID(l), part.LeafUplinkPort(s))
		}
	}

	// Routing, exactly as topo.LeafSpine: inter-leaf traffic ECMPs over all
	// of the leaf's uplinks; each spine points at the destination leaf's
	// downlink. Every table references only ports local to the node.
	for l, leaf := range e.Leaves {
		for dl := range e.Hosts {
			if dl == l {
				continue
			}
			for _, h := range e.Hosts[dl] {
				leaf.SetRoute(h.ID(), e.LeafUp[l]...)
			}
		}
		for s, spine := range e.Spines {
			for _, h := range e.Hosts[l] {
				spine.SetRoute(h.ID(), e.SpineDown[s][l])
			}
		}
	}
	return e
}

// OnBarrier registers a hook to run at every barrier with all shards
// quiescent at exactly the barrier time. Hooks may read any shard's state,
// and may mutate it synchronously: the next window starts only after every
// hook returns, so hook-side mutations are ordered by the same alternation
// that orders the packet exchange (sync.go), and RunBefore has advanced
// each shard queue's clock to the barrier, so events a hook schedules land
// at barrier-relative times identical in every shard layout. The hybrid
// fast path depends on this — a fidelity demotion at a barrier starts
// packet transports on the owning shards' queues (see ApplyHybrid).
// Mutations at arbitrary virtual times still belong in scheduled events.
func (e *Engine) OnBarrier(h func(barrier simtime.Time)) { e.hooks = append(e.hooks, h) }

// hostShard returns the shard that owns a host, the one its transports'
// callbacks run on.
func (e *Engine) hostShard(h HostRef) int { return e.Part.LeafShard[h.Leaf] }

// Now returns the last barrier every shard has reached.
func (e *Engine) Now() simtime.Time { return e.now }

// HostPorts returns every host NIC port in global host order (sampling).
func (e *Engine) HostPorts() []*netsim.Port {
	var out []*netsim.Port
	for _, hs := range e.HostUp {
		out = append(out, hs...)
	}
	return out
}

// AttachObs wires the run's observability into the sharded engine: every
// shard Network shares the run's Tracer (it locks internally — the same
// shared-ring contract exp.forEachParallel relies on), trace records are
// stamped with the partition's node→shard labeling, the manifest learns
// the shard count, and each shard's event/packet totals are registered.
// Call before Run.
func (e *Engine) AttachObs(run *obs.Run) {
	if run == nil {
		return
	}
	run.SetShards(e.Part.K)
	part := e.Part
	run.Tracer.SetShardMap(func(node int32) int32 { return int32(part.ShardOfNode(int(node))) })
	for _, sh := range e.Shards {
		sh.Net.Tracer = run.Tracer
		run.RegisterEngine(sh.Net.Q.Processed, sh.Net.PacketsAlloced)
	}
}

// Processed sums events processed across all shard queues. A K-shard run
// executes exactly the same events as the sequential engine — a cross-shard
// hand-off is a buffered function call on the transmit side and one arrival
// event on the receive side, just like a local delivery — so this total is
// part of the differential-equality contract.
func (e *Engine) Processed() uint64 {
	var sum uint64
	for _, sh := range e.Shards {
		sum += sh.Net.Q.Processed()
	}
	return sum
}
