package psim

// Hybrid-fidelity plans: the flow-level fast-forward engine (internal/hybrid)
// running over a sharded fabric. The hybrid engine is coordinator state — it
// is built over the global port tables and driven exclusively from a barrier
// hook, where all shards are quiescent, so its triggers read cross-shard
// state races-free and its demotions may start packet transports on the
// owning shards' queues synchronously (see Engine.OnBarrier). Everything the
// engine consumes is barrier-sampled simulated state, and the barrier
// cadence is a property of the topology, not of the shard count
// (topo.Partition.Lookahead), so every layout sees identical trigger
// decisions at identical instants: hybrid runs stay bit-identical across
// layouts just like pure packet runs (TestHybridLayoutIdentity).

import (
	"cmp"
	"slices"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/hybrid"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/tcp"
)

// HybridState is the retained bookkeeping of one hybrid-fidelity plan
// instantiation: which plan specs have not started yet, which hybrid flows
// are live at packet fidelity, and which of those completed mid-window.
// It lives on Applied.Hybrid so snapshots can capture it — it is exactly
// the state that used to hide in ApplyHybrid's closures.
type HybridState struct {
	// Eng is the hybrid fast-forward engine driving this instantiation.
	Eng *hybrid.Engine

	//acclint:ignore snapcover construction wiring: ApplyHybrid on the rebuilt engine
	e *Engine
	//acclint:ignore snapcover derived topology view: ApplyHybrid on the rebuilt engine builds the mesh from the fabric
	mesh *hybrid.Mesh
	//acclint:ignore snapcover construction wiring: ApplyHybrid of the plan Build makes again
	p *Plan
	//acclint:ignore snapcover construction wiring: ApplyHybrid on the rebuilt engine
	res *Applied

	// hflows[i] is flow i's hybrid registration while it runs at packet
	// fidelity — held from the demotion that started the transport until
	// the barrier that drains its completion into Eng.PacketDone.
	hflows []*hybrid.Flow
	// packetDone[i] marks a packet-mode completion observed mid-window.
	// Completions fire on the shard that owns the receiver while other
	// shards are still running — but PacketDone mutates link state shared
	// across shards (demand reservations, packet counts). So completion
	// callbacks only mark a per-flow slot (disjoint indices, race-free like
	// res.End), and the reservations are released at the next barrier with
	// the shards quiescent. The decrements commute, so batching them at the
	// barrier leaves every Tick-time observable (utilization, promotion
	// hysteresis) exactly as the synchronous release would have.
	packetDone []bool
	// done[s] lists the plan indices whose packetDone mark was set on shard
	// s since the last barrier, so the barrier finds the window's completions
	// without scanning every flow. One list per shard because a receiver's
	// callback runs on the shard that owns it and an append is not a disjoint
	// slot write; drainDone empties them. Not saved: the marks are, and
	// a restore lists every set mark again.
	//acclint:ignore snapcover rebuilt by state: emptied, then refilled by markDone for every restored mark
	done [][]int
	// pending holds the plan indices ApplyHybrid did not start, ordered by
	// (Start, index); pending[next:] are the ones not started yet. A barrier
	// takes the due prefix and starts it in plan order.
	pending []int
	next    int
}

// ApplyHybrid instantiates the plan with hybrid fidelity: DCQCN flows
// register analytic-eligible and fast-forward in closed form until a trigger
// demotes them into the real transport with the exact remaining bytes; TCP
// flows run at packet level but reserve their demand so analytic flows see
// their load. Flow ids are position-implied (netsim.FlowID(i+1)), exactly as
// in Apply, so a demoted flow ECMP-hashes onto the same uplink its packets
// use in a pure packet run.
//
// Because the hybrid engine only acts at barriers, flow starts are quantized
// to the first barrier at-or-after FlowSpec.Start (specs due at or before
// the current barrier start immediately, in plan order). That cadence is
// layout-invariant, so quantization never breaks cross-layout identity —
// but Applied.End values are comparable to Apply's only within one window.
//
// Call after Build and before Run; returns the Applied results and the
// hybrid engine for stats/assertions. Faults are scheduled exactly as in
// Apply, with their event handles retained for snapshot restore.
func (e *Engine) ApplyHybrid(p *Plan, cfg hybrid.Config) (*Applied, *hybrid.Engine) {
	eng := hybrid.NewBarrier(cfg, e.Now, e.Shards[0].Net.Tracer)
	mesh := hybrid.ForTables(eng, e.HostUp, e.LeafDown, e.LeafUp, e.SpineDown)

	n := len(p.Flows)
	res := &Applied{
		Plan:      p,
		DCQCNSend: make([]*dcqcn.Flow, n),
		DCQCNRecv: make([]*dcqcn.Receiver, n),
		TCPSend:   make([]*tcp.Flow, n),
		TCPRecv:   make([]*tcp.Receiver, n),
		End:       make([]simtime.Time, n),
	}
	h := &HybridState{
		Eng:        eng,
		e:          e,
		mesh:       mesh,
		p:          p,
		res:        res,
		hflows:     make([]*hybrid.Flow, n),
		packetDone: make([]bool, n),
		done:       make([][]int, len(e.Shards)),
		pending:    make([]int, 0, n),
	}
	res.Hybrid = h
	for _, sh := range e.Shards {
		sh.Net.DeclareFlowIDs(netsim.FlowID(n))
	}

	now := e.Now()
	for i, fs := range p.Flows {
		if fs.Start <= now {
			h.start(i)
		} else {
			h.pending = append(h.pending, i)
		}
	}
	h.sortPending()
	e.OnBarrier(h.barrier)

	evs, err := engineLinks(e).schedule(p.Faults, now)
	if err != nil {
		panic(err)
	}
	res.armed.evs = evs
	return res, eng
}

// bind returns flow i's packet-transition and analytic-completion
// callbacks. ApplyHybrid admissions and snapshot restore use the same
// binding, so a restored flow demotes into exactly the transports a
// continuous run would have started.
func (h *HybridState) bind(i int) (startPacket func(*hybrid.Flow, int64), onDone func(*hybrid.Flow, simtime.Time)) {
	fs := h.p.Flows[i]
	id := netsim.FlowID(i + 1)
	src, dst := h.e.Hosts[fs.Src.Leaf][fs.Src.Host], h.e.Hosts[fs.Dst.Leaf][fs.Dst.Host]
	shard := h.e.hostShard(fs.Dst) // the receiver's: its completion callback runs there
	switch fs.Transport {
	case TransportTCP:
		return func(f *hybrid.Flow, remaining int64) {
			h.hflows[i] = f
			h.res.TCPRecv[i] = tcp.StartReceiver(id, src.ID(), dst, remaining, h.p.TCP, func(r *tcp.Receiver) {
				h.res.End[i] = r.End
				h.markDone(i, shard)
			})
			h.res.TCPSend[i] = tcp.StartSender(src.Net(), id, src, dst.ID(), remaining, h.p.TCP)
		}, nil
	default: // TransportDCQCN
		return func(f *hybrid.Flow, remaining int64) {
			// Receiver first, then sender — applyPlan's fixed order.
			h.hflows[i] = f
			h.res.DCQCNRecv[i] = dcqcn.StartReceiver(id, src.ID(), dst, remaining, h.p.DCQCN, func(r *dcqcn.Receiver) {
				h.res.End[i] = r.End
				h.markDone(i, shard)
			})
			h.res.DCQCNSend[i] = dcqcn.StartSender(src.Net(), id, src, dst.ID(), remaining, h.p.DCQCN)
		}, func(f *hybrid.Flow, end simtime.Time) { h.res.End[i] = end }
	}
}

// start admits plan flow i to the hybrid engine at the current barrier.
func (h *HybridState) start(i int) {
	fs := h.p.Flows[i]
	if h.p.OnStart != nil {
		// e.Now() is the admission instant: the current barrier inside
		// OnBarrier hooks, the epoch for specs due at apply time. That is
		// the time a recorded trace must carry for the flow, because
		// replaying it re-quantizes to the same barrier (see trace.go).
		h.p.OnStart(i, h.e.Now())
	}
	id := netsim.FlowID(i + 1)
	src, dst := h.e.Hosts[fs.Src.Leaf][fs.Src.Host], h.e.Hosts[fs.Dst.Leaf][fs.Dst.Host]
	startPacket, onDone := h.bind(i)
	opts := hybrid.FlowOpts{ID: uint64(id), Size: fs.Size}
	switch fs.Transport {
	case TransportTCP:
		opts.Prio = h.p.TCP.Prio
	default:
		opts.Prio, opts.Eligible = h.p.DCQCN.Prio, true
	}
	h.Eng.StartFlow(h.mesh.Path(id, src, dst), opts, startPacket, onDone)
}

// markDone records flow i's packet-mode completion for the next barrier.
// Every receiver completion callback ends here, those of restored receivers
// included; shard is the one the caller runs on, the receiving host's, so
// concurrent callers write disjoint slots and lists.
func (h *HybridState) markDone(i, shard int) {
	h.packetDone[i] = true
	h.done[shard] = append(h.done[shard], i)
}

// drainDone releases the window's packet-mode completions with the shards
// quiescent (see HybridState.packetDone), in plan order.
func (h *HybridState) drainDone() {
	all := h.done[0]
	for s := 1; s < len(h.done); s++ {
		all = append(all, h.done[s]...)
		h.done[s] = h.done[s][:0]
	}
	slices.Sort(all)
	for _, i := range all {
		h.packetDone[i] = false
		if f := h.hflows[i]; f != nil {
			h.hflows[i] = nil
			h.Eng.PacketDone(f)
		}
	}
	h.done[0] = all[:0]
}

// sortPending orders pending, a list of ascending plan indices, by
// (Start, index) and rewinds the cursor.
func (h *HybridState) sortPending() {
	slices.SortStableFunc(h.pending, func(a, b int) int {
		return cmp.Compare(h.p.Flows[a].Start, h.p.Flows[b].Start)
	})
	h.next = 0
}

// barrier is the per-window hook: release completions, then advance the
// engine — completions past their End and trigger checks see the world
// before this barrier's admissions — then start every spec that has come
// due, in plan order.
func (h *HybridState) barrier(b simtime.Time) {
	h.drainDone()
	h.Eng.Tick(b)
	from := h.next
	for h.next < len(h.pending) && h.p.Flows[h.pending[h.next]].Start <= b {
		h.next++
	}
	due := h.pending[from:h.next]
	slices.Sort(due)
	for _, i := range due {
		h.start(i)
	}
}
