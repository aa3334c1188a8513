package eventq

import (
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support.
//
// The queue itself serializes only its counters (clock, sequence counter,
// processed count) plus a pool-prewarm hint: event *contents* are closures
// and pre-bound method values, which cannot be written to bytes. Restoring
// a snapshot therefore rebuilds the world deterministically (construction
// gives every plan event, or the block of seqs a plan reserves, the same
// (at, seq) it had originally, because the sequence counter starts from the
// same zero), clears the rebuilt queue, restores the counters, and
// re-inserts pending work through three typed paths:
//
//   - RestoreEvent and AtSlot re-insert a construction-time handle (the
//     closure is already bound to the rebuilt world) at the (at, seq) it
//     carries or at a slot its owner reserved.
//   - Timer and CallSlot re-arm a component timer or an in-flight packet
//     event at an explicitly recorded (at, seq) without consuming the
//     sequence counter, so the restored schedule is bit-identical to the
//     original.
//
// See DESIGN.md "Snapshot & fork" for the full restore protocol.

// maxPrewarm bounds the free-list prewarm a restore honours. The hint sizes
// an allocation but is not state — a shorter free list only means the run
// allocates the rest on demand — so a hint beyond any pool a snapshotted
// world keeps is clamped rather than trusted. A restore also allocates no
// more Events than there are bytes left in the stream, so a short image
// cannot make it allocate much; what it leaves out is owed, and saved back
// in the hint, so a restored world saves the bytes the original would.
const maxPrewarm = 1 << 16

// State visits the queue's counters and a free-pool prewarm hint. The
// schedule's contents are visited by their owners (see package comment).
// Reading, it first empties the schedule, then restores the counters and
// prewarms the free list so post-restore scheduling allocates nothing;
// owners then re-insert still-pending work through RestoreEvent, AtSlot,
// Timer and CallSlot.
func (q *Queue) State(v *codec.Visitor) {
	v.Tag("eventq")
	if v.Reading() {
		q.Clear()
	}
	codec.Int64(v, &q.now)
	v.U64(&q.seq)
	v.U64(&q.processed)
	warm := len(q.free) + q.pooledLive() + q.owed
	v.Int(&warm)
	if v.Reading() {
		if q.buckets != nil {
			q.baseDay = dayOf(q.now)
			q.curDay = q.baseDay
		}
		warm = min(warm, maxPrewarm)
		for len(q.free) < min(warm, v.Remaining()) {
			q.free = append(q.free, &Event{q: q})
		}
		q.owed = max(warm-len(q.free), 0)
	}
}

// pooledLive counts resident pooled (CallAt-path) events, live or
// cancelled. Restore re-materializes that many from the free list, so the
// prewarm target is free + pooledLive.
func (q *Queue) pooledLive() int {
	n := 0
	for i := range q.buckets {
		b := &q.buckets[i]
		for _, ent := range b.ents[b.head:] {
			if !ent.stale() && ent.ev.pooled {
				n++
			}
		}
	}
	for _, ent := range q.ov {
		if !ent.stale() && ent.ev.pooled {
			n++
		}
	}
	return n
}

// Clear removes every entry from the schedule. Pooled events are recycled
// into the free list; handle events are detached (no longer pending) but
// keep their (at, seq) and callback, so a subsequent RestoreEvent can
// re-insert them unchanged. The clock and counters are left untouched.
func (q *Queue) Clear() {
	for i := range q.buckets {
		b := &q.buckets[i]
		for j := b.head; j < len(b.ents); j++ {
			q.clearEntry(b.ents[j])
			b.ents[j] = entry{}
		}
		b.head = len(b.ents)
		if len(b.ents) > 0 {
			q.clearBucket(b)
		}
	}
	for i, ent := range q.ov {
		q.clearEntry(ent)
		q.ov[i] = entry{}
	}
	q.ov = q.ov[:0]
	q.ovStale = 0
	q.calQ = 0
	q.live = 0
	q.warmEnd = entry{}
}

// clearEntry detaches one resident entry's event. Stale entries (superseded
// by a Reset) are artifacts: their event's live entry is elsewhere.
func (q *Queue) clearEntry(ent entry) {
	if ent.stale() {
		return
	}
	ev := ent.ev
	ev.pending = false
	ev.loc = locNone
	if ev.pooled {
		ev.cancelled = false
		q.recycle(ev)
	}
}

// RestoreEvent re-inserts a detached handle event at the (at, seq) it
// already carries: AtSlot at the handle's own slot. The event must come from
// the deterministic rebuild of the same world (its callback is bound to live
// objects).
func (q *Queue) RestoreEvent(ev *Event) {
	if ev == nil {
		panic("eventq: RestoreEvent needs a handle event")
	}
	q.AtSlot(ev, ev.at, ev.seq, ev.fn)
}

// Timer visits one handle timer's slot: a pending flag and, when pending,
// its (at, seq) through codec.Slot. Reading, it re-arms fn at the recorded
// slot without consuming the sequence counter — the restore-side
// counterpart of At/Reset — and stores the new handle in *ev, nil when the
// timer was idle.
func (q *Queue) Timer(v *codec.Visitor, ev **Event, fn func()) {
	e := *ev
	pending := e.Pending()
	v.Bool(&pending)
	if v.Reading() {
		*ev = nil
	}
	if !pending {
		return
	}
	if v.Reading() {
		e = &Event{fn: fn, q: q}
	}
	codec.Slot(v, &e.at, &e.seq, q.now)
	if v.Reading() && v.Err() == nil {
		q.schedule(e)
		*ev = e
	}
}

// CallSlot visits one pooled event's (at, seq) through codec.Slot. Reading,
// it schedules fn(arg) on a recycled event at the recorded slot without
// consuming the sequence counter — the restore-side counterpart of
// CallAt/CallAfter/CallAtSeq.
func (q *Queue) CallSlot(v *codec.Visitor, at *simtime.Time, seq *uint64, fn func(any), arg any) {
	codec.Slot(v, at, seq, q.now)
	if !v.Reading() || v.Err() != nil {
		return
	}
	e := q.pooledEvent()
	e.at = *at
	e.seq = *seq
	e.afn = fn
	e.arg = arg
	e.pooled = true
	e.cancelled = false
	q.schedule(e)
}

// Seq returns the next monotonic sequence number the queue will assign.
// Snapshot differential tests use it to assert rebuild equivalence.
func (q *Queue) Seq() uint64 { return q.seq }

// Seq returns the sequence number of a handle event: owners record it to
// re-arm timers on restore.
func (e *Event) Seq() uint64 { return e.seq }

// Pending reports whether the event is scheduled and will fire.
func (e *Event) Pending() bool { return e != nil && e.pending }

// Owner returns the queue the event was created on. Restore code uses it
// to re-insert a detached handle into the correct shard's queue.
func (e *Event) Owner() *Queue { return e.q }
