package psim

import (
	"fmt"
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
// same state in every shard layout. Engine.SaveState inside an OnBarrier
// hook is therefore a complete, layout-portable capture of the fabric.

// SaveState writes the engine's barrier clock and every shard's network
// state. Call only from a barrier hook (or with the engine quiescent after
// Run returned).
func (e *Engine) SaveState(w *codec.Writer) {
	w.Tag("psim")
	w.I64(int64(e.now))
	w.Int(len(e.Shards))
	for _, sh := range e.Shards {
		sh.Net.SaveState(w)
	}
}

// RestoreState restores a snapshot into a freshly built engine with the
// same Config. Plan events and transports are restored separately (see
// Applied.RestorePending and Engine.RestoreApplied).
func (e *Engine) RestoreState(r *codec.Reader) error {
	r.Expect("psim")
	e.now = simtime.Time(r.I64())
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(e.Shards) {
		return fmt.Errorf("psim: snapshot has %d shards, engine has %d (layout mismatch — snapshots are layout-specific)", n, len(e.Shards))
	}
	for _, sh := range e.Shards {
		if err := sh.Net.RestoreState(r); err != nil {
			return err
		}
	}
	return nil
}

// SaveApplied writes the live transport population of one plan
// instantiation: per flow, the sender and receiver halves that are still
// registered (completed halves tore themselves down and are rebuilt as
// completed by the End table), plus the completion table.
func (e *Engine) SaveApplied(w *codec.Writer, a *Applied) {
	w.Tag("applied")
	w.Int(len(a.Plan.Flows))
	for i, fs := range a.Plan.Flows {
		var sendLive, recvLive bool
		switch fs.Transport {
		case TransportDCQCN:
			sendLive = a.DCQCNSend[i] != nil && !a.DCQCNSend[i].SenderDone()
			recvLive = a.DCQCNRecv[i] != nil && !a.DCQCNRecv[i].Done()
		case TransportTCP:
			sendLive = a.TCPSend[i] != nil && !a.TCPSend[i].Acked()
			recvLive = a.TCPRecv[i] != nil && !a.TCPRecv[i].Done()
		}
		w.Bool(sendLive)
		if sendLive {
			switch fs.Transport {
			case TransportDCQCN:
				a.DCQCNSend[i].SaveState(w)
			case TransportTCP:
				a.TCPSend[i].SaveState(w)
			}
		}
		w.Bool(recvLive)
		if recvLive {
			switch fs.Transport {
			case TransportDCQCN:
				a.DCQCNRecv[i].SaveState(w)
			case TransportTCP:
				a.TCPRecv[i].SaveState(w)
			}
		}
		w.I64(int64(a.End[i]))
	}
}

// RestoreApplied rebuilds the live transports saved by SaveApplied onto
// the rebuilt engine, re-registering endpoints and re-arming timers, then
// re-parks NIC waiters. Call after Engine.RestoreState and
// Applied.RestorePending.
func (e *Engine) RestoreApplied(r *codec.Reader, a *Applied) error {
	r.Expect("applied")
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(a.Plan.Flows) {
		return fmt.Errorf("psim: snapshot has %d flows, plan has %d", n, len(a.Plan.Flows))
	}
	// Discard construction-time transports before the overlay: a hybrid
	// rebuild starts due flows synchronously at apply time, registering
	// endpoints the snapshot supersedes.
	for _, sh := range e.Shards {
		sh.Net.ResetEndpoints()
	}
	for i, fs := range a.Plan.Flows {
		i := i
		src := e.Hosts[fs.Src.Leaf][fs.Src.Host]
		dst := e.Hosts[fs.Dst.Leaf][fs.Dst.Host]
		shard := e.hostShard(fs.Dst) // the receiver's: its completion callback runs there
		a.DCQCNSend[i], a.DCQCNRecv[i] = nil, nil
		a.TCPSend[i], a.TCPRecv[i] = nil, nil
		if r.Bool() {
			switch fs.Transport {
			case TransportDCQCN:
				a.DCQCNSend[i] = dcqcn.RestoreSender(src.Net(), src, r)
			case TransportTCP:
				a.TCPSend[i] = tcp.RestoreSender(src.Net(), src, r)
			}
		}
		if r.Bool() {
			switch fs.Transport {
			case TransportDCQCN:
				a.DCQCNRecv[i] = dcqcn.RestoreReceiver(dst, func(rx *dcqcn.Receiver) {
					a.End[i] = rx.End
					if a.Hybrid != nil {
						a.Hybrid.markDone(i, shard)
					}
				}, r)
			case TransportTCP:
				a.TCPRecv[i] = tcp.RestoreReceiver(dst, func(rx *tcp.Receiver) {
					a.End[i] = rx.End
					if a.Hybrid != nil {
						a.Hybrid.markDone(i, shard)
					}
				}, r)
			}
		}
		a.End[i] = simtime.Time(r.I64())
		if err := r.Err(); err != nil {
			return err
		}
	}
	for _, sh := range e.Shards {
		err := sh.Net.ResolveWaiters(func(kind uint8, flow netsim.FlowID) netsim.Waiter {
			idx := int(flow) - 1
			if idx < 0 || idx >= len(a.Plan.Flows) {
				return nil
			}
			switch kind {
			case netsim.WaiterDCQCN:
				// A DCQCN sender parks at most once and only NICReady moves
				// it on, so a parked one is never done: no placeholder.
				if f := a.DCQCNSend[idx]; f != nil {
					return f
				}
			case netsim.WaiterTCP:
				if f := a.TCPSend[idx]; f != nil {
					return f
				}
				// SaveApplied skips a fully acked sender, but one of its
				// park slots can outlive it (see netsim.DoneWaiter).
				if a.Plan.Flows[idx].Transport == TransportTCP && a.End[idx] != 0 {
					return netsim.DoneWaiter{Kind: kind, Flow: flow}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// SaveState writes the sampler's accumulated goodput series and the
// baseline counters the next sample will difference against.
func (s *Sampler) SaveState(w *codec.Writer) {
	w.Tag("sampler")
	w.Int(len(s.Times))
	for i := range s.Times {
		w.I64(int64(s.Times[i]))
		w.F64(s.Gbps[i])
	}
	w.U64(s.last)
	w.I64(int64(s.lastT))
	w.I64(int64(s.nextAt))
}

// RestoreState overlays a saved series onto a freshly constructed sampler
// over the same ports, so the resumed run extends the series exactly as the
// uninterrupted run would have.
func (s *Sampler) RestoreState(r *codec.Reader) error {
	r.Expect("sampler")
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("psim: sampler series length %d negative", n)
	}
	s.Times, s.Gbps = s.Times[:0], s.Gbps[:0]
	for i := 0; i < n; i++ {
		s.Times = append(s.Times, simtime.Time(r.I64()))
		s.Gbps = append(s.Gbps, r.F64())
	}
	s.last = r.U64()
	s.lastT = simtime.Time(r.I64())
	s.nextAt = simtime.Time(r.I64())
	return r.Err()
}

// SaveState writes the hybrid bookkeeping: the fast-forward engine's full
// state, the not-yet-started plan indices, and the per-flow packet-mode
// registrations with their mid-window completion marks. Call alongside
// SaveApplied (the transports themselves live there).
func (h *HybridState) SaveState(w *codec.Writer) {
	w.Tag("psim-hybrid")
	h.Eng.SaveState(w)
	waiting := slices.Clone(h.pending[h.next:])
	slices.Sort(waiting)
	w.Int(len(waiting))
	for _, i := range waiting {
		w.Int(i)
	}
	for i, f := range h.hflows {
		w.Bool(h.packetDone[i])
		w.Bool(f != nil)
		if f != nil {
			h.Eng.SaveFlow(w, f)
		}
	}
}

// RestoreState overlays the hybrid bookkeeping onto a freshly rebuilt
// ApplyHybrid instantiation, re-binding flow callbacks through the same
// bind path the original admissions used. Call after Engine.RestoreState
// (queues cleared, clocks restored) and before RestoreApplied.
func (h *HybridState) RestoreState(r *codec.Reader) error {
	r.Expect("psim-hybrid")
	err := h.Eng.RestoreState(r, func(id uint64) (func(*hybrid.Flow, int64), func(*hybrid.Flow, simtime.Time)) {
		return h.bind(int(id) - 1)
	})
	if err != nil {
		return err
	}
	np := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if np < 0 || np > len(h.p.Flows) {
		return fmt.Errorf("psim: hybrid snapshot has %d pending flows, plan has %d", np, len(h.p.Flows))
	}
	h.pending = h.pending[:0]
	last := -1
	for k := 0; k < np; k++ {
		i := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if i <= last || i >= len(h.p.Flows) {
			return fmt.Errorf("psim: hybrid snapshot pending index %d after %d, want ascending indices below %d", i, last, len(h.p.Flows))
		}
		h.pending = append(h.pending, i)
		last = i
	}
	h.sortPending()
	for s := range h.done {
		h.done[s] = h.done[s][:0]
	}
	for i := range h.hflows {
		h.packetDone[i] = false
		if r.Bool() {
			h.markDone(i, h.e.hostShard(h.p.Flows[i].Dst))
		}
		h.hflows[i] = nil
		if r.Bool() {
			f, err := h.Eng.RestoreFlow(r)
			if err != nil {
				return err
			}
			h.hflows[i] = f
		}
	}
	return r.Err()
}
