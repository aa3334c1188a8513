package psim

import (
	"slices"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/hybrid"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
	"github.com/accnet/acc/internal/tcp"
)

// Engine snapshots are taken at barriers only: every shard is quiescent at
// exactly the barrier time, all outboxes have been exchanged (an in-flight
// cross-shard packet lives as an arrival event in the receiving shard's
// queue, captured by its port's flight ring), and barrier hooks see the
// same state in every shard layout. Engine.State inside an OnBarrier hook
// is therefore a complete, layout-portable capture of the fabric.

// State visits the engine's barrier clock and every shard's network state.
// Save only from a barrier hook (or with the engine quiescent after Run
// returned). Reading restores into a freshly built engine with the same
// Config; plan events and transports follow through Applied.RestorePending
// and Applied.State.
func (e *Engine) State(v *codec.Visitor) {
	v.Tag("psim")
	codec.Int64(v, &e.now)
	n := len(e.Shards)
	if v.Int(&n); n != len(e.Shards) {
		v.Fail("psim: snapshot has %d shards, engine has %d (layout mismatch — snapshots are layout-specific)", n, len(e.Shards))
	}
	for _, sh := range e.Shards {
		if v.Err() != nil {
			return
		}
		sh.Net.State(v)
	}
}

// State visits one plan instantiation's live state: the hybrid bookkeeping
// when the plan was applied with hybrid fidelity; per flow, the sender and
// receiver halves that are still registered (completed halves tore
// themselves down and are rebuilt as completed by the End table); and the
// completion table. Reading rebuilds the live transports onto the rebuilt
// engine e, re-registering endpoints and re-arming timers, then re-parks
// NIC waiters. Restore it after Engine.State and RestorePending.
func (a *Applied) State(v *codec.Visitor, e *Engine) {
	hyb := a.Hybrid != nil
	if v.Bool(&hyb); hyb != (a.Hybrid != nil) {
		v.Fail("psim: image fidelity (hybrid %v) disagrees with the plan's", hyb)
	}
	if a.Hybrid != nil {
		a.Hybrid.state(v)
	}
	v.Tag("applied")
	n := len(a.Plan.Flows)
	if v.Int(&n); n != len(a.Plan.Flows) {
		v.Fail("psim: snapshot has %d flows, plan has %d", n, len(a.Plan.Flows))
	}
	if v.Err() != nil {
		return
	}
	if v.Reading() {
		// Discard construction-time transports before the overlay: a hybrid
		// rebuild starts due flows synchronously at apply time, registering
		// endpoints the snapshot supersedes.
		for _, sh := range e.Shards {
			sh.Net.ResetEndpoints()
		}
	}
	for i, fs := range a.Plan.Flows {
		a.sender(v, e, i, fs)
		a.receiver(v, e, i, fs)
		codec.Int64(v, &a.End[i])
		if v.Err() != nil {
			return
		}
	}
	if v.Reading() {
		for _, sh := range e.Shards {
			if err := sh.Net.ResolveWaiters(a.waiter); err != nil {
				v.Fail("%v", err)
				return
			}
		}
	}
}

// sender visits flow i's sender half while it is live.
func (a *Applied) sender(v *codec.Visitor, e *Engine, i int, fs FlowSpec) {
	var live bool
	switch fs.Transport {
	case TransportDCQCN:
		live = a.DCQCNSend[i] != nil && !a.DCQCNSend[i].SenderDone()
	case TransportTCP:
		live = a.TCPSend[i] != nil && !a.TCPSend[i].Acked()
	}
	if v.Bool(&live); v.Reading() {
		a.DCQCNSend[i], a.TCPSend[i] = nil, nil
	}
	if !live {
		return
	}
	src := e.Hosts[fs.Src.Leaf][fs.Src.Host]
	switch {
	case fs.Transport == TransportDCQCN && v.Reading():
		a.DCQCNSend[i] = dcqcn.RestoreSender(src.Net(), src, v)
	case fs.Transport == TransportDCQCN:
		a.DCQCNSend[i].State(v)
	case fs.Transport == TransportTCP && v.Reading():
		a.TCPSend[i] = tcp.RestoreSender(src.Net(), src, v)
	case fs.Transport == TransportTCP:
		a.TCPSend[i].State(v)
	}
}

// receiver visits flow i's receiver half while it is live. A restored
// receiver's completion callback runs on the receiver's shard.
func (a *Applied) receiver(v *codec.Visitor, e *Engine, i int, fs FlowSpec) {
	var live bool
	switch fs.Transport {
	case TransportDCQCN:
		live = a.DCQCNRecv[i] != nil && !a.DCQCNRecv[i].Done()
	case TransportTCP:
		live = a.TCPRecv[i] != nil && !a.TCPRecv[i].Done()
	}
	if v.Bool(&live); v.Reading() {
		a.DCQCNRecv[i], a.TCPRecv[i] = nil, nil
	}
	if !live {
		return
	}
	dst := e.Hosts[fs.Dst.Leaf][fs.Dst.Host]
	shard := e.hostShard(fs.Dst)
	done := func(end simtime.Time) {
		a.End[i] = end
		if a.Hybrid != nil {
			a.Hybrid.markDone(i, shard)
		}
	}
	switch {
	case fs.Transport == TransportDCQCN && v.Reading():
		a.DCQCNRecv[i] = dcqcn.RestoreReceiver(dst, func(rx *dcqcn.Receiver) { done(rx.End) }, v)
	case fs.Transport == TransportDCQCN:
		a.DCQCNRecv[i].State(v)
	case fs.Transport == TransportTCP && v.Reading():
		a.TCPRecv[i] = tcp.RestoreReceiver(dst, func(rx *tcp.Receiver) { done(rx.End) }, v)
	case fs.Transport == TransportTCP:
		a.TCPRecv[i].State(v)
	}
}

// waiter resolves a parked NIC waiter recorded in an image to the restored
// sender it names.
func (a *Applied) waiter(kind uint8, flow netsim.FlowID) netsim.Waiter {
	idx := int(flow) - 1
	if idx < 0 || idx >= len(a.Plan.Flows) {
		return nil
	}
	switch kind {
	case netsim.WaiterDCQCN:
		// A DCQCN sender parks at most once and only NICReady moves it on,
		// so a parked one is never done: no placeholder.
		if f := a.DCQCNSend[idx]; f != nil {
			return f
		}
	case netsim.WaiterTCP:
		if f := a.TCPSend[idx]; f != nil {
			return f
		}
		// A fully acked sender is not saved, but one of its park slots can
		// outlive it (see netsim.DoneWaiter).
		if a.Plan.Flows[idx].Transport == TransportTCP && a.End[idx] != 0 {
			return netsim.DoneWaiter{Kind: kind, Flow: flow}
		}
	}
	return nil
}

// State visits the sampler's accumulated goodput series and the baseline
// counters the next sample will difference against. Reading overlays a
// freshly constructed sampler over the same ports, so the resumed run
// extends the series exactly as the uninterrupted run would have.
func (s *Sampler) State(v *codec.Visitor) {
	v.Tag("sampler")
	g := &s.Goodput
	n := v.Count("sampler series length", g.Len(), 1+8)
	if v.Reading() {
		g.Times = slices.Grow(g.Times[:0], n)[:n]
		g.Values = slices.Grow(g.Values[:0], n)[:n]
	}
	for i := range g.Times {
		codec.Int64(v, &g.Times[i])
		v.F64(&g.Values[i])
	}
	v.U64(&s.last)
	codec.Int64(v, &s.lastT)
	codec.Int64(v, &s.nextAt)
}

// state visits the hybrid bookkeeping: the fast-forward engine's full
// state, the not-yet-started plan indices, and the per-flow packet-mode
// registrations with their mid-window completion marks (the transports
// themselves are the Applied's). Reading re-binds flow callbacks through
// the same bind path the original admissions used.
func (h *HybridState) state(v *codec.Visitor) {
	v.Tag("psim-hybrid")
	h.Eng.State(v, func(id uint64) (func(*hybrid.Flow, int64), func(*hybrid.Flow, simtime.Time)) {
		if id == 0 || id > uint64(len(h.p.Flows)) {
			v.Fail("psim: hybrid flow id %d is not one of the plan's %d", id, len(h.p.Flows))
			return nil, nil
		}
		return h.bind(int(id) - 1)
	})
	waiting := slices.Clone(h.pending[h.next:])
	slices.Sort(waiting)
	n := v.Count("hybrid pending flow count", len(waiting), 1)
	if v.Reading() {
		waiting = make([]int, n)
	}
	last := -1
	for k := range waiting {
		v.Int(&waiting[k])
		if i := waiting[k]; i <= last || i >= len(h.p.Flows) {
			v.Fail("psim: hybrid snapshot pending index %d after %d, want ascending indices below %d", i, last, len(h.p.Flows))
			return
		}
		last = waiting[k]
	}
	if v.Reading() {
		h.pending = append(h.pending[:0], waiting...)
		h.sortPending()
		for s := range h.done {
			h.done[s] = h.done[s][:0]
		}
	}
	for i := range h.hflows {
		done, live := h.packetDone[i], h.hflows[i] != nil
		if v.Bool(&done); v.Reading() {
			h.packetDone[i] = false
			if done {
				h.markDone(i, h.e.hostShard(h.p.Flows[i].Dst))
			}
		}
		if v.Bool(&live); v.Reading() {
			h.hflows[i] = nil
		}
		if live {
			h.Eng.FlowState(v, &h.hflows[i])
		}
	}
}
