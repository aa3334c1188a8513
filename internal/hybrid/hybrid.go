// Package hybrid is the flow-level fast-forward engine: it advances
// uncongested traffic in closed form — max-min rate shares per link,
// frame-exact FCT and bytes-delivered integration over batched windows —
// and demotes flows to the existing packet-level engine the moment a
// deterministic trigger says packet effects (queueing, ECN marking, PFC,
// faults) could influence the outcome. The packet engine stays the source
// of truth wherever fidelity matters; the hybrid engine only skips work it
// can prove is unaffected by it.
//
// # Fluid model
//
// Every registered flow declares a demand: the rate its transport would
// pace at absent congestion feedback (for DCQCN, the sender NIC line rate —
// rc starts at InitRate = line and never moves until the first CNP). The
// engine water-fills max-min shares against link capacities, with
// packet-mode flows reserving their demand on the links they cross. Two
// deterministic facts make the fluid model *exact*, not approximate, for
// the flows it keeps:
//
//   - a flow whose max-min share equals its demand paces frames below every
//     link's capacity, so no queue builds anywhere on its path and DCQCN's
//     control loop never engages: the flow streams at exactly its demand;
//   - a flow whose share falls short of demand would build a queue at its
//     bottleneck and enter real congestion-control dynamics — it is demoted
//     on the spot, before any analytic time passes at the wrong rate.
//
// The per-link trigger adds a safety margin: a link crossed by two or more
// flows whose fluid utilization reaches DemoteUtil of capacity is demoted
// even though the fluid model says it fits, because near saturation
// packet-level frame alignment can transiently queue. Links also demote on
// observed simulated state — PFC pauses, WRED-relevant queue depth, or the
// link going administratively down — and promote back after PromoteAfter
// consecutive quiet windows. Every trigger reads simulated state only, so
// runs stay bit-reproducible and shard-safe under psim.
//
// # Conservation
//
// Analytic delivery is committed in whole frames using the same frame
// geometry the packet engine would use (MTU payload + header per frame,
// per-frame serialization rounding), so the committed payload is an exact
// integer byte count. Demotion hands the transport `Size - committed`
// bytes to send at packet level: analytic payload + packet payload == Size
// identically, and each crossed port is credited the committed wire bytes
// (netsim.Port.CreditAnalyticTx) so per-port delivered-byte totals stay
// conserved across every mode switch.
package hybrid

import (
	"math"
	"math/bits"
	"slices"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/simtime"
)

// Mode is a flow's current fidelity.
type Mode uint8

const (
	// ModeAnalytic flows advance in closed form.
	ModeAnalytic Mode = iota
	// ModePacket flows are simulated by the packet engine; the hybrid
	// engine only tracks their demand reservation until PacketDone.
	ModePacket
)

func (m Mode) String() string {
	if m == ModeAnalytic {
		return "analytic"
	}
	return "packet"
}

// Config holds the deterministic trigger and cadence knobs.
type Config struct {
	// Window is the analytic advance cadence: committed bytes, observed
	// trigger state, and promotion hysteresis are evaluated every Window.
	Window simtime.Duration
	// DemoteUtil demotes a link shared by >=2 flows once fluid utilization
	// (analytic shares + packet-mode demand reservations) reaches this
	// fraction of capacity. Below it, paced flows cannot sustain a queue.
	DemoteUtil float64
	// QueueFrac demotes a link whose observed egress queue depth reaches
	// QueueFrac*Kmin bytes — packet traffic is approaching the WRED
	// marking region, so analytic flows sharing the port must see it.
	QueueFrac float64
	// Kmin is the WRED minimum threshold the queue trigger is scaled by,
	// in bytes (the most conservative Kmin deployed on the fabric).
	Kmin int
	// PromoteAfter is the hysteresis: a demoted link must observe this
	// many consecutive quiet windows before it serves analytic flows again.
	PromoteAfter int
	// MTU is the frame payload size the analytic frame geometry assumes;
	// it must match the transport's (netsim.DefaultMTU by default).
	MTU int
}

// DefaultConfig returns the trigger settings used by the experiments:
// 20us windows, demotion at 85% fluid utilization on shared links, queue
// trigger at half of a conservative 100KB Kmin, promotion after 3 quiet
// windows. The engine ticks whenever its driver calls Tick — every psim
// window, 600ns on the default fabric — so PromoteAfter counts ticks;
// Window is the cadence for a driver that has no barrier of its own.
func DefaultConfig() Config {
	return Config{
		Window:       20 * simtime.Microsecond,
		DemoteUtil:   0.85,
		QueueFrac:    0.5,
		Kmin:         100 * simtime.KB,
		PromoteAfter: 3,
		MTU:          netsim.DefaultMTU,
	}
}

// Link is one modeled hop: a physical egress port plus the capacity the
// fluid model shares among the flows crossing it.
type Link struct {
	//acclint:ignore snapcover construction wiring: AddLink on the rebuilt fabric
	Port *netsim.Port

	//acclint:ignore snapcover construction config: AddLink derives it from the rebuilt port
	Cap simtime.Rate // capacity water-filling distributes
	//acclint:ignore snapcover construction config: AddLink derives it from the rebuilt port
	SerRate simtime.Rate // per-frame serialization rate (store-and-forward)
	//acclint:ignore snapcover construction config: AddLink derives it from the rebuilt port
	Delay simtime.Duration // propagation delay of this hop

	hot  bool // demoted: no analytic admissions until promotion
	cold int  // consecutive quiet windows observed while hot

	flows    []*Flow      // analytic flows crossing, registration order
	sumRate  simtime.Rate // sum of analytic shares (== demands in equilibrium)
	reserved simtime.Rate // sum of packet-mode flows' demand reservations
	nPacket  int          // live packet-mode flows crossing

	lastPauseRx uint64 // Port.PauseRxEvents at the last trigger check
	wasDown     bool   // Port.IsDown at the last trigger check

	//acclint:ignore snapcover registration index, assigned again by AddLink in the same order on the rebuilt fabric
	idx int // the snapshot codec's link identity
	//acclint:ignore snapcover ECMP wiring registered at construction
	groups []int // indices into Engine.groups of the ECMP groups this link is in

	// Water-filling scratch, recomputed by every fill before it is read.
	//acclint:ignore snapcover water-filling scratch, recomputed by every fill
	avail float64
	//acclint:ignore snapcover water-filling scratch, recomputed by every fill
	nUn int
}

// Hot reports whether the link is currently demoted to packet fidelity.
func (l *Link) Hot() bool { return l.hot }

// util returns fluid utilization: analytic shares plus packet reservations
// over capacity.
func (l *Link) util() float64 {
	return (float64(l.sumRate) + float64(l.reserved)) / float64(l.Cap)
}

// FlowOpts describes one flow registration.
type FlowOpts struct {
	ID   uint64 // transport flow id, for traces (0 if unassigned)
	Size int64  // payload bytes
	Prio int    // traffic class
	// Demand is the uncongested pacing rate; zero defaults to the first
	// path link's serialization rate (the sender NIC line).
	Demand simtime.Rate
	// Eligible marks the flow analytic-capable. Transports whose
	// uncongested behaviour the fluid model cannot reproduce exactly
	// (TCP slow start) must pass false: the flow runs at packet level but
	// still reserves its demand so analytic flows see its load.
	Eligible bool
}

// Flow is one registered transfer. While Mode is ModeAnalytic the engine
// owns its progress; after demotion the caller's startPacket transport owns
// it and the engine only tracks the link reservation until PacketDone.
type Flow struct {
	ID     uint64
	Size   int64
	Prio   int
	Demand simtime.Rate
	Path   []*Link

	Start simtime.Time
	// End is the closed-form completion instant (valid while analytic):
	// frame-exact sender serialization at Demand plus store-and-forward
	// latency of the last frame across the remaining hops.
	End simtime.Time

	Mode Mode

	// Frame geometry, fixed at registration.
	nFrames  int64            // ceil(Size/MTU)
	fullWire int              // MTU + header, bytes on the wire
	lastWire int              // final frame's wire bytes
	gap      simtime.Duration // full-frame pacing slot at Demand
	sendEnd  simtime.Time     // sender hands the last byte to the NIC

	frames    int64 // frames committed to the conservation ledger
	completed bool

	startPacket func(*Flow, int64)
	onDone      func(*Flow, simtime.Time)

	// Water-filling scratch.
	//acclint:ignore snapcover intra-tick water-filling scratch, recomputed from live demands at every tick
	share float64
	//acclint:ignore snapcover intra-tick water-filling scratch, recomputed from live demands at every tick
	frozen bool
}

// AnalyticPayload returns the payload bytes committed in closed form so
// far. For a demoted flow this is frozen at the demotion instant and
// satisfies AnalyticPayload() + (bytes handed to startPacket) == Size.
func (f *Flow) AnalyticPayload() int64 { return f.payloadOf(f.frames) }

// payloadOf returns the payload bytes carried by the first k frames.
func (f *Flow) payloadOf(k int64) int64 {
	if k >= f.nFrames {
		return f.Size
	}
	return k * int64(f.mtuPayload())
}

// wireOf returns the wire bytes of the first k frames.
func (f *Flow) wireOf(k int64) int64 {
	if k >= f.nFrames {
		return int64(f.nFrames-1)*int64(f.fullWire) + int64(f.lastWire)
	}
	return k * int64(f.fullWire)
}

func (f *Flow) mtuPayload() int { return f.fullWire - netsim.DataHeaderBytes }

// Engine is one hybrid-fidelity controller. Whoever owns the clock drives
// it by calling Tick: psim at every barrier, or a caller stepping one
// sequential Network a Window at a time.
type Engine struct {
	//acclint:ignore snapcover construction config; restore overlays onto an engine built with the same Config
	Cfg Config

	clock func() simtime.Time

	//acclint:ignore snapcover observability wiring, re-attached at construction
	tracer *obs.Tracer

	links []*Link
	flows []*Flow // live analytic flows, registration order
	//acclint:ignore snapcover ECMP wiring registered at construction; up/down state lives on the Links
	groups [][]*Link // ECMP groups: a member's up/down flip demotes them all

	// visit is the set of links Tick must check, one bit per link
	// registration index: a link outside it is one on which checkLink is a
	// no-op. Bits come from the ports netsim touched since the last tick
	// (drain), stay set while a link is hot (demoteLink sets, promotion
	// clears), and start all set (AddLink, MarkAll on restore) — visiting a
	// link that did not need it is always legal, only skipping one that did
	// is not. Not saved for that reason: a restore marks every link.
	// See DESIGN.md "Hybrid fidelity".
	//acclint:ignore snapcover rebuilt by State's MarkAll, a superset of the set it stands for
	visit []uint64
	// active is the set of links that carry at least one analytic flow, one
	// bit per link registration index: exactly {l : len(l.flows) > 0}.
	// waterfill and the near-saturation trigger walk it in place of every
	// link — a link outside it has no unfrozen flow to bound and no flow to
	// read its avail, so what they compute is the same. StartFlow and
	// a restore set a bit where a link gains its first flow, detach clears
	// it where the last one leaves. Not saved: a restore rebuilds it with
	// the flow lists it is derived from. See DESIGN.md "Hybrid fidelity".
	//acclint:ignore snapcover rebuilt by State: cleared, then set by attach for every restored analytic flow
	active []uint64
	//acclint:ignore snapcover intra-fill scratch: the active links in ascending index, rebuilt by every waterfill
	fill []*Link
	//acclint:ignore snapcover construction wiring: the Networks owning a registered port, whose touched lists drain reads
	nets []*netsim.Network
	//acclint:ignore snapcover construction wiring: port -> link registration index, looked up by drain, never ranged
	linkOf map[*netsim.Port]int
	//acclint:ignore snapcover intra-tick scratch: ECMP groups with a flipped member, emptied at every tick
	flipped []int

	// LinkChecks counts checkLink calls: the work the visit set exists to
	// avoid (one per link per tick before it).
	//acclint:ignore snapcover telemetry of this process's work, not simulation state: a restored engine re-checks every link once, so it over-counts an uninterrupted run by design
	LinkChecks uint64
	// LinkFills counts the links waterfill walks, once per fill: the work
	// the active set exists to avoid (every link per fill before it).
	//acclint:ignore snapcover telemetry of this process's work, not simulation state, like LinkChecks
	LinkFills uint64

	// inflight holds flows whose sender fully paced out before a demotion
	// trigger hit their path: nothing is left to hand to the packet
	// transport, so they complete analytically at End, detected at ticks
	// like every other completion.
	inflight []*Flow

	// Stats feed the run manifest (obs.Run.AddFidelity).
	Stats obs.FidelitySummary

	// free recycles finished Flow objects (path capacity included) so
	// steady-state flow churn allocates nothing.
	free []*Flow
}

// NewBarrier returns an engine for barrier-driven runs: the caller invokes
// Tick at every barrier and clock reports the current simulated time.
// Analytic completions fire at the first tick at-or-after their exact End;
// the recorded End itself stays frame-exact.
func NewBarrier(cfg Config, clock func() simtime.Time, tracer *obs.Tracer) *Engine {
	return &Engine{Cfg: cfg, clock: clock, tracer: tracer}
}

// AddLink registers one modeled hop over a physical port, sharing the
// port's line rate at its propagation delay, and marks the port analytic.
//
// It also arms the port's change notification (netsim.Port.Watch) at the
// queue trigger's depth: depth >= QueueFrac*Kmin holds for an integer depth
// exactly when depth >= ceil(QueueFrac*Kmin). The link starts in the visit
// set, so the first tick checks it whatever state the port is already in.
func (e *Engine) AddLink(p *netsim.Port) *Link {
	if p.Watched() {
		panic("hybrid: port already registered with a hybrid engine")
	}
	l := &Link{Port: p, Cap: p.Bandwidth, SerRate: p.Bandwidth, Delay: p.Delay, idx: len(e.links)}
	p.SetFidelity(netsim.FidelityAnalytic)
	p.Watch(int(math.Ceil(min(e.Cfg.QueueFrac*float64(e.Cfg.Kmin), math.MaxInt32))))
	e.links = append(e.links, l)
	if e.linkOf == nil {
		e.linkOf = make(map[*netsim.Port]int)
	}
	e.linkOf[p] = l.idx
	if !slices.Contains(e.nets, p.Net()) {
		e.nets = append(e.nets, p.Net())
	}
	if l.idx>>6 == len(e.visit) {
		e.visit = append(e.visit, 0)
		e.active = append(e.active, 0)
	}
	e.mark(l.idx)
	return l
}

func (e *Engine) mark(i int)   { e.visit[i>>6] |= 1 << (i & 63) }
func (e *Engine) unmark(i int) { e.visit[i>>6] &^= 1 << (i & 63) }

// nextSet returns the smallest member of set at or after i, or -1. A walk
// `for i := nextSet(s, 0); i >= 0; i = nextSet(s, i+1)` visits the set in
// ascending order — the order a scan of e.links takes — and reads each word
// afresh at every step, so bits the loop body sets or clears ahead of i
// count, as they would for the scan.
func nextSet(set []uint64, i int) int {
	for wi := i >> 6; wi < len(set); wi++ {
		if w := set[wi] >> (i & 63) << (i & 63); w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		i = (wi + 1) << 6
	}
	return -1
}

// attach registers an analytic flow on every link of its path.
func (e *Engine) attach(f *Flow) {
	for _, l := range f.Path {
		if len(l.flows) == 0 {
			e.active[l.idx>>6] |= 1 << (l.idx & 63)
		}
		l.flows = append(l.flows, f)
		l.sumRate += f.Demand
	}
}

// MarkAll puts every link in the visit set, which makes the next Tick a
// check of all links. A restore uses it in place of saved visit state.
func (e *Engine) MarkAll() {
	for i := range e.links {
		e.mark(i)
	}
}

// drain moves the ports netsim touched since the last drain into the visit
// set. Barrier context only: it reads every shard Network's list.
func (e *Engine) drain() {
	for _, n := range e.nets {
		for _, p := range n.TakeTouched() {
			e.mark(e.linkOf[p])
		}
	}
}

// AddGroup registers an ECMP group: when any member link's up/down state
// flips, the packet engine re-hashes every flow of the group onto the new
// alive set, so the fluid model's per-uplink path assignments go stale. The
// engine responds by demoting the whole group — the packet engine then
// routes every affected flow with real per-packet ECMP, and the links earn
// their way back analytic through the normal promotion hysteresis.
func (e *Engine) AddGroup(links []*Link) {
	for _, l := range links {
		l.groups = append(l.groups, len(e.groups))
	}
	e.groups = append(e.groups, links)
}

// StartFlow registers a transfer over path (copied: callers may reuse the
// slice, e.g. Mesh.Path's scratch). startPacket launches the packet-level
// transport for the given remaining payload bytes — called synchronously
// (now, or at a later trigger instant) exactly once unless the flow
// completes analytically. onDone fires only for analytic completion, at the
// first Tick at or after the flow's exact closed-form End, and is handed
// that End; packet-mode completion belongs to the transport, which must
// then call PacketDone. The returned Flow may be recycled by a later
// StartFlow once it has fully completed, so callers must not retain it
// past the callback that observed completion.
func (e *Engine) StartFlow(path []*Link, o FlowOpts, startPacket func(*Flow, int64), onDone func(*Flow, simtime.Time)) *Flow {
	now := e.clock()
	f := e.admit(now, path, o, startPacket, onDone)
	// The fill may demote the flow at once, and any peers its arrival — or,
	// for a flow admitted at packet level, its reservation — pushes over a
	// trigger: at this instant, not a window later.
	e.refill(now)
	if f.Mode == ModeAnalytic {
		f.End = e.endTime(f)
	}
	return f
}

// admit builds the flow and its frame geometry and registers it: tentatively
// analytic if it is eligible and no hop refuses, at packet level otherwise.
// The caller owes the fill that decides whether the admission stands.
func (e *Engine) admit(now simtime.Time, path []*Link, o FlowOpts, startPacket func(*Flow, int64), onDone func(*Flow, simtime.Time)) *Flow {
	mtu := e.Cfg.MTU
	if mtu <= 0 {
		mtu = netsim.DefaultMTU
	}
	demand := o.Demand
	if demand <= 0 {
		demand = path[0].SerRate
	}
	f := e.newFlow()
	f.ID, f.Size, f.Prio, f.Demand = o.ID, o.Size, o.Prio, demand
	f.Path = append(f.Path, path...)
	f.Start = now
	f.startPacket, f.onDone = startPacket, onDone
	f.nFrames = (o.Size + int64(mtu) - 1) / int64(mtu)
	if f.nFrames == 0 {
		f.nFrames = 1
	}
	f.fullWire = mtu + netsim.DataHeaderBytes
	last := o.Size - (f.nFrames-1)*int64(mtu)
	f.lastWire = int(last) + netsim.DataHeaderBytes
	f.gap = simtime.TxTime(f.fullWire, demand)
	f.sendEnd = now.Add(simtime.Duration(f.nFrames-1) * f.gap).Add(simtime.TxTime(f.lastWire, demand))
	e.Stats.FlowsStarted++

	if !o.Eligible || e.pathBlocked(path) {
		e.toPacket(f, now)
		return f
	}
	e.flows = append(e.flows, f)
	e.attach(f)
	return f
}

// newFlow takes a recycled Flow from the free list (path capacity
// retained) or allocates one.
func (e *Engine) newFlow() *Flow {
	if n := len(e.free); n > 0 {
		f := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		path := f.Path[:0]
		*f = Flow{Path: path}
		return f
	}
	return &Flow{}
}

// release returns a finished flow to the free list, once it has actually
// completed.
func (e *Engine) release(f *Flow) {
	if !f.completed {
		return
	}
	e.free = append(e.free, f)
}

// pathBlocked reports whether any hop refuses analytic admission.
func (e *Engine) pathBlocked(path []*Link) bool {
	for _, l := range path {
		if l.hot || l.Port.IsDown() || l.Port.Bandwidth != l.Cap {
			return true
		}
	}
	return false
}

// endTimeAt computes the closed-form completion instant: the sender
// injects frame i at start + i*gap (the transport's pacing schedule), and
// the last frame store-and-forwards across the hops. Full frames never
// queue on an analytic path (every hop serializes at least as fast as the
// pacing rate), but the smaller final frame catches up to its full-sized
// predecessor and must wait for it hop by hop — the max term. Per-frame
// TxTime rounding matches the packet engine's arithmetic exactly, so on an
// otherwise idle path this is the nanosecond the packet engine would
// deliver the last byte.
func (f *Flow) endTimeAt(start simtime.Time) simtime.Time {
	last := start.Add(simtime.Duration(f.nFrames-1) * f.gap)
	multi := f.nFrames > 1
	var full simtime.Time
	if multi {
		full = start.Add(simtime.Duration(f.nFrames-2) * f.gap)
	}
	for _, l := range f.Path {
		if multi {
			full = full.Add(simtime.TxTime(f.fullWire, l.SerRate))
			if full > last {
				last = full
			}
			full = full.Add(l.Delay)
		}
		last = last.Add(simtime.TxTime(f.lastWire, l.SerRate)).Add(l.Delay)
	}
	return last
}

func (e *Engine) endTime(f *Flow) simtime.Time { return f.endTimeAt(f.Start) }

// commitTo advances the conservation ledger to the frames the sender has
// fully paced out by time t, crediting their wire bytes to every crossed
// port. Integer frame arithmetic: the committed payload is exact.
func (e *Engine) commitTo(f *Flow, t simtime.Time) {
	var target int64
	switch {
	case t >= f.sendEnd:
		target = f.nFrames
	case t <= f.Start:
		target = 0
	default:
		target = int64(t.Sub(f.Start) / f.gap)
		if target > f.nFrames-1 {
			target = f.nFrames - 1
		}
	}
	if target <= f.frames {
		return
	}
	wire := uint64(f.wireOf(target) - f.wireOf(f.frames))
	for _, l := range f.Path {
		l.Port.CreditAnalyticTx(f.Prio, wire)
	}
	e.Stats.AnalyticPayload += uint64(f.payloadOf(target) - f.payloadOf(f.frames))
	f.frames = target
}

func (e *Engine) complete(f *Flow, end simtime.Time) {
	f.completed = true
	e.commitTo(f, f.sendEnd)
	e.detach(f)
	e.Stats.AnalyticFlows++
	if f.onDone != nil {
		f.onDone(f, end)
	}
}

// detach removes an analytic flow from the engine and its links. A flow
// that is no longer registered is left alone: demoteLink detaches a flow
// before toPacket finds its sender fully paced out, and such a flow reaches
// complete — and this function — a second time at its End.
func (e *Engine) detach(f *Flow) {
	n := len(e.flows)
	e.flows = removeFlow(e.flows, f)
	if len(e.flows) == n {
		return
	}
	for _, l := range f.Path {
		l.sumRate -= f.Demand
		l.flows = removeFlow(l.flows, f)
		if len(l.flows) == 0 {
			e.active[l.idx>>6] &^= 1 << (l.idx & 63)
		}
	}
}

// removeFlow deletes f preserving registration order.
func removeFlow(s []*Flow, f *Flow) []*Flow {
	for i, g := range s {
		if g == f {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			return s[:len(s)-1]
		}
	}
	return s
}

// toPacket converts a flow to packet fidelity at time t: commit the
// analytic ledger, reserve the flow's demand on its links, and hand the
// transport the exact remainder. A flow whose sender already paced out
// every frame has nothing left to send — its tail is in flight on a path
// that was uncongested while it was committed — so it is not converted and
// completes analytically at its closed-form End.
func (e *Engine) toPacket(f *Flow, t simtime.Time) {
	if f.Mode == ModeAnalytic && !f.completed {
		e.commitTo(f, t)
		if f.frames >= f.nFrames {
			e.inflight = append(e.inflight, f)
			return // Tick completes it at End
		}
	}
	f.Mode = ModePacket
	for _, l := range f.Path {
		l.reserved += f.Demand
		l.nPacket++
	}
	e.Stats.PacketFlows++
	remaining := f.Size - f.AnalyticPayload()
	f.startPacket(f, remaining)
}

// PacketDone releases a packet-mode flow's demand reservation; transports
// call it from their completion callback. It mutates link state shared by
// every flow crossing the path, so in sharded runs it must only be called
// with the shards quiescent — psim.ApplyHybrid records completions in
// per-flow slots and drains them at the next barrier.
func (e *Engine) PacketDone(f *Flow) {
	if f.Mode != ModePacket || f.completed {
		return
	}
	f.completed = true
	for _, l := range f.Path {
		l.reserved -= f.Demand
		l.nPacket--
	}
	e.release(f)
}

// demoteLink demotes one link: mark it hot — which keeps it in the visit
// set until promotion — then convert every analytic flow crossing it (in
// global registration order) at time t. The converted flows' transports
// enqueue their first frames synchronously, so the ports that touches are
// drained here: a Tick that is part-way through the visit set then checks
// the ones still ahead of it at this tick, as a scan of every link would.
func (e *Engine) demoteLink(l *Link, t simtime.Time) {
	if l.hot {
		return
	}
	l.hot = true
	l.cold = 0
	e.mark(l.idx)
	l.Port.SetFidelity(netsim.FidelityPacket)
	e.Stats.Demotions++
	e.tracer.FidelityDemote(t, l.Port.Owner.ID(), l.Port.Index, len(l.flows), l.util())
	for len(l.flows) > 0 {
		f := l.flows[0]
		e.detach(f)
		e.toPacket(f, t)
	}
	e.drain()
}

// refill recomputes max-min shares and applies the fluid demotion
// triggers, repeating until the share assignment is trigger-free: each
// demotion converts flows to packet reservations, which changes the
// water-filling problem for the flows that remain.
func (e *Engine) refill(now simtime.Time) {
	for {
		e.waterfill()
		if !e.applyFluidTriggers(now) {
			return
		}
	}
}

// waterfill computes max-min shares by progressive filling: every round
// raises all unfrozen flows by the largest uniform increment no link or
// demand permits exceeding, then freezes saturated flows. Only the active
// links take part (see Engine.active); a fill changes no flow list, so they
// are read out of the set once.
func (e *Engine) waterfill() {
	e.fill = e.fill[:0]
	for i := nextSet(e.active, 0); i >= 0; i = nextSet(e.active, i+1) {
		l := e.links[i]
		l.avail = float64(l.Cap) - float64(l.reserved)
		if l.avail < 0 {
			l.avail = 0
		}
		l.nUn = len(l.flows)
		e.fill = append(e.fill, l)
	}
	e.LinkFills += uint64(len(e.fill))
	unfrozen := 0
	for _, f := range e.flows {
		f.share = 0
		f.frozen = false
		unfrozen++
	}
	for unfrozen > 0 {
		inc := math.Inf(1)
		for _, l := range e.fill {
			if l.nUn > 0 {
				if v := l.avail / float64(l.nUn); v < inc {
					inc = v
				}
			}
		}
		for _, f := range e.flows {
			if !f.frozen {
				if v := float64(f.Demand) - f.share; v < inc {
					inc = v
				}
			}
		}
		if inc < 0 {
			inc = 0
		}
		for _, f := range e.flows {
			if !f.frozen {
				f.share += inc
			}
		}
		froze := 0
		for _, f := range e.flows {
			if f.frozen {
				continue
			}
			sat := f.share >= float64(f.Demand)*(1-1e-12)
			if !sat {
				for _, l := range f.Path {
					if l.avail-inc*float64(l.nUn) <= 1e-9*float64(l.Cap) {
						sat = true
						break
					}
				}
			}
			if sat {
				f.frozen = true
				froze++
			}
		}
		for _, l := range e.fill {
			if l.nUn == 0 {
				continue
			}
			l.avail -= inc * float64(l.nUn)
			if l.avail < 0 {
				l.avail = 0
			}
			n := 0
			for _, f := range l.flows {
				if !f.frozen {
					n++
				}
			}
			l.nUn = n
		}
		unfrozen -= froze
		if froze == 0 {
			// Numerical stall: freeze everything at current shares.
			for _, f := range e.flows {
				f.frozen = true
			}
			unfrozen = 0
		}
	}
}

// applyFluidTriggers demotes links the current share assignment disqualifies
// and reports whether anything changed. Link-order evaluation keeps the
// conversion sequence deterministic regardless of which condition fired.
func (e *Engine) applyFluidTriggers(now simtime.Time) bool {
	changed := false
	// Near-saturation trigger: a shared link at DemoteUtil of capacity. Only
	// a link with an analytic flow can fire it, and a demotion empties links
	// further on, so the walk is over the live active set.
	for i := nextSet(e.active, 0); i >= 0; i = nextSet(e.active, i+1) {
		l := e.links[i]
		if l.hot {
			continue
		}
		if len(l.flows)+l.nPacket >= 2 && l.fluidShare()+float64(l.reserved) >= e.Cfg.DemoteUtil*float64(l.Cap) {
			e.demoteLink(l, now)
			changed = true
		}
	}
	if changed {
		return true
	}
	// Bottleneck trigger: a flow whose share fell short of demand would
	// queue at its saturated hop and enter real congestion control.
	for _, f := range e.flows {
		if f.share >= float64(f.Demand)*(1-1e-9) {
			continue
		}
		for _, l := range f.Path {
			if l.avail <= 1e-9*float64(l.Cap) {
				e.demoteLink(l, now)
				changed = true
			}
		}
		if f.Mode == ModeAnalytic {
			// No saturated hop identified (numerical stall): demote the
			// flow's first hop directly so the flow converts.
			e.demoteLink(f.Path[0], now)
			changed = true
		}
		// demoteLink compacted e.flows mid-range; shares are now stale, so
		// hand control back for a fresh water-fill before scanning further.
		return true
	}
	return changed
}

// fluidShare sums the water-filled shares of the link's analytic flows.
func (l *Link) fluidShare() float64 {
	s := 0.0
	for _, f := range l.flows {
		s += f.share
	}
	return s
}

// Tick advances the engine to now, the instant its driver's clock has
// reached with every event before it run: complete flows past their End,
// commit the conservation ledger, and evaluate the observed-state triggers
// and promotion hysteresis on every link whose verdict can have changed.
func (e *Engine) Tick(now simtime.Time) {
	e.Stats.Ticks++
	// Completions first, each at its exact End.
	for i := 0; i < len(e.flows); {
		f := e.flows[i]
		if !f.completed && f.End <= now {
			e.complete(f, f.End)
			e.release(f)
			continue // complete compacted e.flows
		}
		i++
	}
	for i := 0; i < len(e.inflight); {
		f := e.inflight[i]
		if !f.completed && f.End > now {
			i++
			continue
		}
		if !f.completed {
			e.complete(f, f.End)
		}
		e.inflight = removeFlow(e.inflight, f)
		e.release(f)
	}
	for _, f := range e.flows {
		e.commitTo(f, now)
	}
	// Observed-state triggers, over the visit set only (see Engine.visit).
	// Both passes walk it in ascending link index, the order a scan of every
	// link would take, so demotion order — and with it transport start
	// order and every event seq — does not depend on how few links are in
	// the set.
	e.drain()
	// ECMP re-hash guard: any up/down flip inside a group invalidates the
	// per-uplink path assignment of every flow hashed across it (see
	// AddGroup). A flip touches the port, so only visit-set links can show
	// one. Runs before the per-link checks so wasDown still holds the state
	// at the link's last check; groups demote in registration order.
	e.flipped = e.flipped[:0]
	for i := nextSet(e.visit, 0); i >= 0; i = nextSet(e.visit, i+1) {
		if l := e.links[i]; l.Port.IsDown() != l.wasDown {
			e.flipped = append(e.flipped, l.groups...)
		}
	}
	slices.Sort(e.flipped)
	for _, g := range slices.Compact(e.flipped) {
		for _, gl := range e.groups[g] {
			e.demoteLink(gl, now)
		}
	}
	// The walk re-reads the set at every step: a demotion may have marked
	// links further on (demoteLink), and those are due at this tick.
	for i := nextSet(e.visit, 0); i >= 0; i = nextSet(e.visit, i+1) {
		l := e.links[i]
		e.LinkChecks++
		e.checkLink(l, now)
		if !l.hot {
			e.unmark(i)
		}
	}
}

// checkLink applies the observed-state triggers (simulated state only) and
// the promotion hysteresis to one link.
func (e *Engine) checkLink(l *Link, now simtime.Time) {
	p := l.Port
	paused := p.PauseRxEvents > l.lastPauseRx
	l.lastPauseRx = p.PauseRxEvents
	l.wasDown = p.IsDown()
	depth := 0
	for _, q := range p.Queues {
		if q.Bytes() > depth {
			depth = q.Bytes()
		}
	}
	queueHot := float64(depth) >= e.Cfg.QueueFrac*float64(e.Cfg.Kmin)
	// A brownout (Port.SetBandwidth) leaves Cap and SerRate at the nominal
	// rate the closed forms were built on: packet fidelity while it lasts.
	degraded := p.Bandwidth != l.Cap
	if p.IsDown() || paused || queueHot || degraded {
		e.demoteLink(l, now)
		l.cold = 0
		return
	}
	if !l.hot {
		return
	}
	// Quiet window: fluid load below the trigger and no packet symptoms.
	if l.util() < e.Cfg.DemoteUtil {
		l.cold++
	} else {
		l.cold = 0
	}
	if l.cold >= e.Cfg.PromoteAfter {
		l.hot = false
		l.cold = 0
		p.SetFidelity(netsim.FidelityAnalytic)
		e.Stats.Promotions++
		e.tracer.FidelityPromote(now, p.Owner.ID(), p.Index, e.Cfg.PromoteAfter)
	}
}

// AnalyticFlows returns the number of live analytic flows.
func (e *Engine) AnalyticFlows() int { return len(e.flows) }

// Links returns the registered links (read-only; used by adapters/tests).
func (e *Engine) Links() []*Link { return e.links }
