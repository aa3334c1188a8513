package hybrid

import (
	"fmt"

	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support — barrier-driven engines only (NewBarrier). Sequential
// engines schedule their own queue events; barrier engines hold all their
// dynamic state in plain fields, so a barrier-time capture is complete.
//
// Flows serialize their path as link registration indices, not by
// re-resolving Mesh.Path on restore: a fault between a flow's admission and
// the snapshot changes what Path would return, but never what the flow
// already crossed. Link flow lists and analytic rate sums are rebuilt from
// the restored flows (both preserve registration order under removal, so
// a link's list is exactly the engine list filtered to its members).
// Callbacks cannot be serialized; RestoreState re-binds them through the
// caller's rebind function, keyed by flow id.
//
// The visit set is not saved either, and neither are netsim's touched
// lists: RestoreState marks every link, so the first tick after a restore
// checks them all. That is a superset of whatever was pending at the
// snapshot instant, and checking a link that did not need it changes
// nothing, so the restored run stays bit-identical to the uninterrupted one.
// The active set is derived state like the link flow lists and is rebuilt
// with them.

// SaveState writes the engine's dynamic state: mode accounting, per-link
// trigger state, and every live analytic and in-flight flow in
// registration order. Packet-mode flows are owned by their transports'
// adapters (see psim.HybridState) and saved there via SaveFlow.
func (e *Engine) SaveState(w *codec.Writer) {
	if e.q != nil {
		panic("hybrid: snapshots support barrier-driven engines only")
	}
	w.Tag("hybrid")
	w.U64(e.Stats.FlowsStarted)
	w.U64(e.Stats.AnalyticFlows)
	w.U64(e.Stats.PacketFlows)
	w.U64(e.Stats.Demotions)
	w.U64(e.Stats.Promotions)
	w.U64(e.Stats.AnalyticPayload)
	w.U64(e.Stats.Ticks)
	w.Bool(e.stopped)
	w.Int(len(e.links))
	for _, l := range e.links {
		w.Bool(l.hot)
		w.Int(l.cold)
		w.I64(int64(l.reserved))
		w.Int(l.nPacket)
		w.U64(l.lastPauseRx)
		w.Bool(l.wasDown)
	}
	w.Int(len(e.flows))
	for _, f := range e.flows {
		e.SaveFlow(w, f)
	}
	w.Int(len(e.inflight))
	for _, f := range e.inflight {
		e.SaveFlow(w, f)
	}
}

// RestoreState overlays a snapshot onto a freshly rebuilt engine with the
// same link registration (same fabric tables). rebind supplies the
// startPacket / onDone callbacks for a flow id — the same bindings the
// original StartFlow call used, so a restored flow demotes into exactly
// the transports a continuous run would have started.
func (e *Engine) RestoreState(r *codec.Reader, rebind func(id uint64) (startPacket func(*Flow, int64), onDone func(*Flow, simtime.Time))) error {
	if e.q != nil {
		panic("hybrid: snapshots support barrier-driven engines only")
	}
	r.Expect("hybrid")
	e.Stats.FlowsStarted = r.U64()
	e.Stats.AnalyticFlows = r.U64()
	e.Stats.PacketFlows = r.U64()
	e.Stats.Demotions = r.U64()
	e.Stats.Promotions = r.U64()
	e.Stats.AnalyticPayload = r.U64()
	e.Stats.Ticks = r.U64()
	e.stopped = r.Bool()
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(e.links) {
		return fmt.Errorf("hybrid: snapshot has %d links, engine has %d (topology mismatch)", n, len(e.links))
	}
	for _, l := range e.links {
		l.hot = r.Bool()
		l.cold = r.Int()
		l.reserved = simtime.Rate(r.I64())
		l.nPacket = r.Int()
		l.lastPauseRx = r.U64()
		l.wasDown = r.Bool()
		l.flows = l.flows[:0]
		l.sumRate = 0
	}
	clear(e.active)
	nf := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	e.flows = e.flows[:0]
	for i := 0; i < nf; i++ {
		f, err := e.RestoreFlow(r)
		if err != nil {
			return err
		}
		f.startPacket, f.onDone = rebind(f.ID)
		e.flows = append(e.flows, f)
		e.attach(f)
	}
	ni := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	e.inflight = e.inflight[:0]
	for i := 0; i < ni; i++ {
		f, err := e.RestoreFlow(r)
		if err != nil {
			return err
		}
		f.startPacket, f.onDone = rebind(f.ID)
		e.inflight = append(e.inflight, f)
	}
	e.MarkAll()
	return r.Err()
}

// SaveFlow writes one flow's full dynamic state, its path encoded as link
// registration indices.
func (e *Engine) SaveFlow(w *codec.Writer, f *Flow) {
	w.Tag("hflow")
	w.U64(f.ID)
	w.I64(f.Size)
	w.Int(f.Prio)
	w.I64(int64(f.Demand))
	w.Int(len(f.Path))
	for _, l := range f.Path {
		w.Int(l.idx)
	}
	w.I64(int64(f.Start))
	w.I64(int64(f.End))
	w.Bool(f.Mode == ModePacket)
	w.I64(f.nFrames)
	w.Int(f.fullWire)
	w.Int(f.lastWire)
	w.I64(int64(f.gap))
	w.I64(int64(f.sendEnd))
	w.I64(f.frames)
	w.Bool(f.completed)
}

// RestoreFlow rebuilds one flow saved by SaveFlow, resolving its path
// against the engine's registered links. Callbacks are left nil; callers
// re-bind them (Engine.RestoreState does so through rebind; packet-mode
// flows restored by adapters need none — only PacketDone touches them).
func (e *Engine) RestoreFlow(r *codec.Reader) (*Flow, error) {
	r.Expect("hflow")
	f := e.newFlow()
	f.ID = r.U64()
	f.Size = r.I64()
	f.Prio = r.Int()
	f.Demand = simtime.Rate(r.I64())
	np := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < np; i++ {
		li := r.Int()
		if li < 0 || li >= len(e.links) {
			r.Fail("hybrid: flow path link index %d out of range", li)
			return nil, r.Err()
		}
		f.Path = append(f.Path, e.links[li])
	}
	f.Start = simtime.Time(r.I64())
	f.End = simtime.Time(r.I64())
	if r.Bool() {
		f.Mode = ModePacket
	} else {
		f.Mode = ModeAnalytic
	}
	f.nFrames = r.I64()
	f.fullWire = r.Int()
	f.lastWire = r.Int()
	f.gap = simtime.Duration(r.I64())
	f.sendEnd = simtime.Time(r.I64())
	f.frames = r.I64()
	f.completed = r.Bool()
	return f, r.Err()
}
