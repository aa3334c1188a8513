package hybrid

import (
	"slices"

	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support. The engine schedules no events of its own and holds
// all its dynamic state in plain fields, so a capture between ticks is
// complete.
//
// Flows serialize their path as link registration indices, not by
// re-resolving Mesh.Path on restore: a fault between a flow's admission and
// the snapshot changes what Path would return, but never what the flow
// already crossed. Link flow lists and analytic rate sums are rebuilt from
// the restored flows (both preserve registration order under removal, so
// a link's list is exactly the engine list filtered to its members).
// Callbacks cannot be serialized; a restore re-binds them through the
// caller's rebind function, keyed by flow id.
//
// The visit set is not saved either, and neither are netsim's touched
// lists: a restore marks every link, so the first tick after it checks
// them all. That is a superset of whatever was pending at the snapshot
// instant, and checking a link that did not need it changes nothing, so
// the restored run stays bit-identical to the uninterrupted one. The
// active set is derived state like the link flow lists and is rebuilt
// with them.

// Rebind supplies the startPacket / onDone callbacks for a restored flow
// id — the same bindings the original StartFlow call used, so a restored
// flow demotes into exactly the transports a continuous run would have
// started.
type Rebind func(id uint64) (startPacket func(*Flow, int64), onDone func(*Flow, simtime.Time))

// minFlowBytes is the fewest bytes a flow takes in an image: a 6-byte tag,
// one per varint and bool.
const minFlowBytes = 6 + 15

// State visits the engine's dynamic state: mode accounting, per-link
// trigger state, and every live analytic and in-flight flow in
// registration order. Packet-mode flows are owned by their transports'
// adapters (see psim.HybridState) and visited there through FlowState.
// Reading overlays a freshly rebuilt engine with the same link
// registration (same fabric tables), re-binding each restored flow's
// callbacks through rebind.
func (e *Engine) State(v *codec.Visitor, rebind Rebind) {
	v.Tag("hybrid")
	e.Stats.State(v)
	// A reserved byte, always saved false: it keeps the slot of a stop flag
	// the engine no longer has, so ACCSNAP\x01 images keep their layout.
	stopped := false
	if v.Bool(&stopped); stopped {
		v.Fail("hybrid: snapshot of a stopped engine")
	}
	n := len(e.links)
	if v.Int(&n); n != len(e.links) {
		v.Fail("hybrid: snapshot has %d links, engine has %d (topology mismatch)", n, len(e.links))
	}
	if v.Err() != nil {
		return
	}
	for _, l := range e.links {
		l.state(v)
	}
	if v.Reading() {
		clear(e.active)
	}
	e.flowList(v, &e.flows, rebind, true)
	e.flowList(v, &e.inflight, rebind, false)
	if v.Reading() {
		e.MarkAll()
	}
}

// state visits the link's trigger state. Reading empties its flow list and
// rate sum, which the restored flows' attach rebuilds.
func (l *Link) state(v *codec.Visitor) {
	v.Bool(&l.hot)
	v.Int(&l.cold)
	codec.Int64(v, &l.reserved)
	v.Int(&l.nPacket)
	v.U64(&l.lastPauseRx)
	v.Bool(&l.wasDown)
	if v.Reading() {
		l.flows = l.flows[:0]
		l.sumRate = 0
	}
}

// flowList visits a registration-ordered flow list; reading, it rebinds
// every restored flow and, for the analytic list, attaches it to its links.
func (e *Engine) flowList(v *codec.Visitor, list *[]*Flow, rebind Rebind, attach bool) {
	n := v.Count("hybrid flow count", len(*list), minFlowBytes)
	if v.Reading() {
		*list = slices.Grow((*list)[:0], n)[:n]
	}
	for i := range *list {
		e.FlowState(v, &(*list)[i])
		if !v.Reading() || v.Err() != nil {
			continue
		}
		f := (*list)[i]
		f.startPacket, f.onDone = rebind(f.ID)
		if attach {
			e.attach(f)
		}
	}
}

// FlowState visits one flow's full dynamic state, its path as link
// registration indices; reading, it first takes a fresh flow for *f to
// read into, with callbacks left nil (Engine.State re-binds them through
// rebind; packet-mode flows restored by adapters need none — only
// PacketDone touches them).
func (e *Engine) FlowState(v *codec.Visitor, f **Flow) {
	if v.Reading() {
		*f = e.newFlow()
	}
	(*f).state(v, e.links)
}

func (f *Flow) state(v *codec.Visitor, links []*Link) {
	v.Tag("hflow")
	v.U64(&f.ID)
	v.I64(&f.Size)
	v.Int(&f.Prio)
	codec.Int64(v, &f.Demand)
	n := v.Count("flow path length", len(f.Path), 1)
	if v.Reading() {
		f.Path = slices.Grow(f.Path[:0], n)[:n]
	}
	for i := range f.Path {
		linkRef(v, &f.Path[i], links)
	}
	codec.Int64(v, &f.Start)
	codec.Int64(v, &f.End)
	// Mode is saved as the one byte a bool takes: 0 analytic, 1 packet.
	if codec.Uint64(v, &f.Mode); f.Mode > ModePacket {
		v.Fail("hybrid: flow mode %d", f.Mode)
	}
	v.I64(&f.nFrames)
	v.Int(&f.fullWire)
	v.Int(&f.lastWire)
	codec.Int64(v, &f.gap)
	codec.Int64(v, &f.sendEnd)
	v.I64(&f.frames)
	v.Bool(&f.completed)
}

// linkRef visits *l as its registration index into links.
func linkRef(v *codec.Visitor, l **Link, links []*Link) {
	i := 0
	if *l != nil {
		i = (*l).idx
	}
	if v.Int(&i); !v.Reading() || v.Err() != nil {
		return
	}
	if i < 0 || i >= len(links) {
		v.Fail("hybrid: flow path link index %d out of range", i)
		return
	}
	*l = links[i]
}
