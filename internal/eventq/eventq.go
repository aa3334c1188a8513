// Package eventq implements the deterministic discrete-event scheduler that
// drives the simulator.
//
// Events are ordered by virtual time with FIFO tie-breaking (a monotonically
// increasing sequence number), so two runs with the same seed replay
// identically. Events may be cancelled, which is implemented by lazy deletion:
// a cancelled event stays in the schedule but its callback is skipped when
// reached.
//
// Four scheduling paths exist:
//
//   - At/After return a *Event handle the caller may Cancel or Reset. These
//     events are never recycled, because the caller can hold the handle
//     indefinitely.
//   - CallAt/CallAfter take a pre-bound func(any) plus an argument and return
//     nothing. Their Event structs come from a per-queue free list and are
//     recycled after firing, so the per-packet hot path (serialize, propagate)
//     schedules without allocating and without capturing a closure.
//   - CallAtSeq is the CallAt fast path with an explicit, history-free
//     sequence key (KeyedSeq) instead of the monotonic counter, used for
//     packet arrivals so same-nanosecond tie-breaking is identical between
//     the sequential engine and the sharded one (internal/psim).
//   - Reserve takes a block of counter seqs and AtSlot later arms a handle at
//     one of them, where an At call made at the reservation would have fired:
//     psim's plan start cursor, one pending handle per queue.
//
// Internally Queue is a calendar queue (an array of fixed-width time buckets
// over a window moved only once they drain, a typed min-heap for the rest),
// specialized to *Event: no container/heap, no interface-method dispatch, no
// boxing on the scheduling path. The previous binary-heap scheduler is kept in
// this package's tests as refQueue (reference_test.go); differential tests
// drive both through randomized workloads and assert identical firing order.
package eventq

import (
	"github.com/accnet/acc/internal/simtime"
)

// Calendar geometry. Each bucket covers 2^bucketShift nanoseconds of virtual
// time ("one day"), and the window spans numBuckets consecutive days, so with
// a 64ns day and 2048 buckets it covers ~131µs from its base day. The base
// moves (rebase, to the clock's day) only while the calendar is empty, so
// until the calendar drains an entry past the window's end goes to the
// overflow heap, however near the clock has come. Line-rate work is
// scheduled a few µs ahead, so a busy calendar drains soon after the clock
// reaches the window's end; ms-scale timers (RTOs) wait in the heap.
const (
	bucketShift = 6
	numBuckets  = 1 << 11
	bucketMask  = numBuckets - 1

	// Every bucket starts with this much capacity, carved out of one shared
	// arena at init. Sparse workloads (a handful of events per bucket-day)
	// then never grow a bucket slice, so steady-state scheduling stays
	// allocation-free without a dense warmup. Dense buckets borrow larger
	// arrays from the queue's slab pool (see clearBucket/growBucket) and
	// return them when drained.
	arenaPerBucket = 4

	// Slab size classes step by 4x from the arena capacity: 16, 64, 256, ...
	// entries. numSlabClasses bounds the largest pooled array at
	// arenaPerBucket<<(2*numSlabClasses) entries — far beyond any real
	// bucket-day occupancy.
	numSlabClasses = 16
)

// slabClass maps a bucket array capacity to its slab pool index, or -1 for
// the base arena capacity.
func slabClass(c int) int {
	k := -1
	for c > arenaPerBucket {
		c >>= 2
		k++
	}
	return k
}

func dayOf(t simtime.Time) int64 { return int64(t) >> bucketShift }

// Where an event's live (current-seq) entry resides.
type loc uint8

const (
	locNone loc = iota // no live entry (unscheduled, fired, or entry consumed)
	locCal             // in a calendar bucket
	locOv              // in the overflow heap
)

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel pending timers.
type Event struct {
	at  simtime.Time
	seq uint64

	// Exactly one of fn / afn is set. afn events carry their argument in arg
	// instead of capturing it in a closure.
	fn  func()
	afn func(any)
	arg any

	q *Queue // owning queue, for live-count accounting on Cancel

	cancelled bool
	pooled    bool // afn fast path: recycle into q.free after firing
	pending   bool // a live entry for this event is scheduled
	loc       loc
}

// At returns the virtual time the event fires at.
func (e *Event) At() simtime.Time { return e.at }

// Cancel marks the event so its callback will not run. Cancelling an event
// that already fired or was cancelled is a no-op. The cancelled entry stays
// in the schedule and is skipped lazily when its time is reached.
func (e *Event) Cancel() {
	if e == nil {
		return
	}
	if e.pending {
		e.pending = false
		e.q.live--
	}
	e.cancelled = true
	e.fn = nil // release captured state early
	e.afn = nil
	e.arg = nil
}

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.cancelled }

// entry is one scheduled occurrence of an event. Rescheduling (Reset) bumps
// the event's seq, so an entry whose seq no longer matches its event is
// stale: an invisible artifact that the queue discards on contact. Stale
// entries are distinct from cancelled ones — a cancelled event keeps its seq,
// stays visible to RunUntil's head check, and is skipped only when popped,
// exactly as the reference heap behaves under lazy deletion.
type entry struct {
	at  simtime.Time
	seq uint64
	ev  *Event
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e entry) stale() bool { return e.seq != e.ev.seq }

// bucket holds the entries of a single day. Entries are appended unsorted;
// when the cursor reaches the bucket it is sorted once and drained in order
// from head. While draining (sorted == true), insertions keep the tail
// ordered via binary insertion, and Reset removes superseded entries in
// place. Storage starts as a base slice carved from the queue's shared arena
// and is swapped for a pooled slab array when a day's occupancy outgrows it.
type bucket struct {
	ents   []entry
	base   []entry // arena-backed slice restored on clear
	head   int
	sorted bool
}

// Queue is a discrete-event scheduler. The zero value is ready to use.
// Queue is not safe for concurrent use; the simulator is single-threaded by
// design so that runs are reproducible.
type Queue struct {
	seq       uint64
	now       simtime.Time
	processed uint64
	free      []*Event // recycled CallAt events

	//acclint:ignore snapcover the calendar's storage: State empties it (Clear) and owners refill it through RestoreEvent, AtSlot, Timer and CallSlot
	buckets []bucket // calendar window, allocated on first insert
	baseDay int64    // first day covered by the window
	curDay  int64    // lower bound on the earliest calendar entry's day
	calQ    int      // entries resident in buckets (incl. cancelled/stale)

	ov      []entry // min-heap of entries beyond the window, (at, seq) order
	ovStale int     // known-stale overflow entries; triggers compaction

	// slabs[k] is a stack of free bucket arrays of capacity
	// arenaPerBucket<<(2*(k+1)), recycled between buckets. A drained bucket
	// returns its oversized array here and reverts to its arena slice, so the
	// pool's footprint tracks the number of *simultaneously* dense bucket-days
	// — a stationary quantity that saturates during warmup — rather than each
	// bucket's all-time occupancy record, which a long run keeps breaking.
	// That distinction is what makes the steady-state hot path allocation-free
	// even under bursty arrivals.
	//acclint:ignore snapcover a pool of spare bucket arrays, rebuilt by Clear returning drained ones: any content is correct
	slabs [numSlabClasses][][]entry

	// scratch is sortDay's distribution target: sized to the densest day
	// seen, all-zero between calls.
	//acclint:ignore snapcover transient within one sortDay call; all-zero at every event boundary, and its capacity is a warm-up artifact like the slab pool's
	scratch []entry

	live int // scheduled, non-cancelled events (see Pending)
	// owed is the part of a restored prewarm hint the restore did not
	// allocate (see State); it stays in the hint until made on demand.
	//acclint:ignore snapcover State saves it inside the prewarm hint
	owed int

	// warmEnd is the (at, seq) key of the first entry of the cursor's dense
	// day that warm has not read yet, and warmSink takes what it read (see
	// warm). A field of the queue, not of a bucket or the package: shards
	// run their queues concurrently. Clear resets the cursor.
	warmEnd entry
	//acclint:ignore snapcover a sink for read-ahead loads; never read
	warmSink uint64
}

// New returns an empty scheduler positioned at the simulation epoch.
func New() *Queue { return &Queue{} }

// Now returns the current virtual time.
func (q *Queue) Now() simtime.Time { return q.now }

// Len returns the number of entries resident in the schedule. This includes
// lazily-deleted work — cancelled events not yet reaped and superseded
// entries left behind by Reset — so it measures memory pressure, not work
// remaining. Use Pending for the number of events that will still fire.
func (q *Queue) Len() int { return q.calQ + len(q.ov) }

// Pending returns the number of live scheduled events: those that will fire
// unless cancelled or rescheduled. Cancelled-but-unreaped events are
// excluded.
func (q *Queue) Pending() int { return q.live }

// Processed returns the number of events executed so far.
func (q *Queue) Processed() uint64 { return q.processed }

func (q *Queue) checkTime(t simtime.Time) {
	if t < q.now {
		panic("eventq: scheduling event in the past")
	}
}

// clearBucket resets a drained bucket. An array borrowed from the slab pool
// goes back for the next dense day to reuse; callers only clear fully-drained
// buckets whose elements have already been zeroed entry-by-entry, so pooled
// arrays never pin Events.
func (q *Queue) clearBucket(b *bucket) {
	if cap(b.ents) > arenaPerBucket {
		if k := slabClass(cap(b.ents)); k < numSlabClasses {
			q.slabs[k] = append(q.slabs[k], b.ents[:0])
		}
		b.ents = b.base
	} else {
		b.ents = b.ents[:0]
	}
	b.head = 0
	b.sorted = false
}

// growBucket swaps the bucket onto an array of the next size class (4x),
// preferring a pooled array over a fresh allocation, and releases the old one.
func (q *Queue) growBucket(b *bucket) {
	want := 4 * cap(b.ents)
	n := len(b.ents)
	var ents []entry
	if k := slabClass(want); k >= 0 && k < numSlabClasses && len(q.slabs[k]) > 0 {
		last := len(q.slabs[k]) - 1
		ents = q.slabs[k][last][:n]
		q.slabs[k][last] = nil
		q.slabs[k] = q.slabs[k][:last]
	} else {
		ents = make([]entry, n, want)
	}
	copy(ents, b.ents)
	old := b.ents
	b.ents = ents
	for i := range old {
		old[i] = entry{}
	}
	if cap(old) > arenaPerBucket {
		if k := slabClass(cap(old)); k < numSlabClasses {
			q.slabs[k] = append(q.slabs[k], old[:0])
		}
	}
}

// bucketPush appends ent, growing capacity in 4x steps through the slab pool.
func (q *Queue) bucketPush(b *bucket, ent entry) {
	if len(b.ents) == cap(b.ents) {
		q.growBucket(b)
	}
	b.ents = append(b.ents, ent)
}

// bucketInsertSorted places ent into the still-pending tail of a draining
// bucket.
func (q *Queue) bucketInsertSorted(b *bucket, ent entry) {
	s := b.ents[b.head:]
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].before(ent) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.bucketPush(b, entry{})
	s = b.ents[b.head:]
	copy(s[lo+1:], s[lo:])
	s[lo] = ent
}

// insert places the live entry for ent.ev into the calendar or the overflow
// heap and records its location on the event.
func (q *Queue) insert(ent entry) {
	if q.buckets == nil {
		q.buckets = make([]bucket, numBuckets)
		arena := make([]entry, numBuckets*arenaPerBucket)
		for i := range q.buckets {
			off := i * arenaPerBucket
			q.buckets[i].base = arena[off : off : off+arenaPerBucket]
			q.buckets[i].ents = q.buckets[i].base
		}
		q.baseDay = dayOf(q.now)
		q.curDay = q.baseDay
	}
	d := dayOf(ent.at)
	if d >= q.baseDay+numBuckets {
		// Beyond the window. If the calendar is empty the window is free to
		// move: advance it to the present before deciding, so near-future
		// events keep using the fast path after long idle gaps.
		if q.calQ == 0 {
			q.rebase()
		}
		if d >= q.baseDay+numBuckets {
			ent.ev.loc = locOv
			q.ovPush(ent)
			return
		}
	}
	if d < q.curDay {
		q.curDay = d
	}
	ent.ev.loc = locCal
	b := &q.buckets[d&bucketMask]
	if b.sorted {
		q.bucketInsertSorted(b, ent)
	} else {
		q.bucketPush(b, ent)
	}
	q.calQ++
}

// rebase moves the window start to the current day and pulls newly-eligible
// entries out of the overflow heap. Only valid while the calendar is empty.
func (q *Queue) rebase() {
	q.baseDay = dayOf(q.now)
	q.curDay = q.baseDay
	limit := q.baseDay + numBuckets
	first := true
	for len(q.ov) > 0 {
		top := q.ov[0]
		if dayOf(top.at) >= limit {
			break
		}
		q.ovPop()
		if top.stale() {
			q.ovStale--
			continue
		}
		d := dayOf(top.at)
		top.ev.loc = locCal
		q.bucketPush(&q.buckets[d&bucketMask], top)
		q.calQ++
		if first {
			// Migration pops in (at, seq) order, so the first live entry has
			// the minimum day: start the cursor there.
			q.curDay = d
			first = false
		}
	}
}

// removeCal deletes the (at, seq) entry from its calendar bucket. Used by
// Reset so a rescheduled pending timer does not leave a superseded entry
// behind — the pattern transports hammer (pacing, RTO re-arm) stays
// allocation- and garbage-free.
func (q *Queue) removeCal(at simtime.Time, seq uint64) {
	b := &q.buckets[dayOf(at)&bucketMask]
	if b.sorted {
		s := b.ents[b.head:]
		target := entry{at: at, seq: seq}
		lo, hi := 0, len(s)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s[mid].before(target) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(s) && s[lo].seq == seq {
			copy(s[lo:], s[lo+1:])
			n := len(b.ents) - 1
			b.ents[n] = entry{}
			b.ents = b.ents[:n]
			q.calQ--
			if b.head == len(b.ents) {
				q.clearBucket(b)
			}
			return
		}
	} else {
		for i := range b.ents {
			if b.ents[i].seq == seq {
				n := len(b.ents) - 1
				b.ents[i] = b.ents[n]
				b.ents[n] = entry{}
				b.ents = b.ents[:n]
				q.calQ--
				return
			}
		}
	}
	panic("eventq: pending entry missing from calendar bucket")
}

// Overflow heap: a hand-specialized binary min-heap of entry values.

func (q *Queue) ovPush(ent entry) {
	q.ov = append(q.ov, ent)
	i := len(q.ov) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.ov[i].before(q.ov[p]) {
			break
		}
		q.ov[i], q.ov[p] = q.ov[p], q.ov[i]
		i = p
	}
}

func (q *Queue) ovPop() {
	n := len(q.ov) - 1
	q.ov[0] = q.ov[n]
	q.ov[n] = entry{}
	q.ov = q.ov[:n]
	if n > 0 {
		q.ovDown(0)
	}
}

func (q *Queue) ovDown(i int) {
	n := len(q.ov)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.ov[r].before(q.ov[l]) {
			m = r
		}
		if !q.ov[m].before(q.ov[i]) {
			break
		}
		q.ov[i], q.ov[m] = q.ov[m], q.ov[i]
		i = m
	}
}

// ovCompact filters stale entries out of the overflow heap in place and
// re-heapifies. Reset-heavy far-future churn (per-ACK RTO re-arming) strands
// one stale entry per re-arm; compacting when they reach half the heap keeps
// the cost amortized O(1) per Reset with no allocation.
func (q *Queue) ovCompact() {
	kept := q.ov[:0]
	for _, ent := range q.ov {
		if !ent.stale() {
			kept = append(kept, ent)
		}
	}
	for i := len(kept); i < len(q.ov); i++ {
		q.ov[i] = entry{}
	}
	q.ov = kept
	q.ovStale = 0
	for i := len(q.ov)/2 - 1; i >= 0; i-- {
		q.ovDown(i)
	}
}

// peek returns the earliest visible entry — live or cancelled, matching the
// reference heap's lazy-deletion view — discarding stale entries it meets.
// It leaves the queue positioned so popHead can remove the returned entry
// in O(1).
func (q *Queue) peek() (entry, bool) {
	for q.calQ > 0 {
		b := &q.buckets[q.curDay&bucketMask]
		if b.head == len(b.ents) {
			if len(b.ents) > 0 {
				q.clearBucket(b)
			}
			q.curDay++
			continue
		}
		if !b.sorted {
			q.sortDay(b.ents)
			b.sorted = true
		}
		if len(b.ents) >= warmMin && !b.ents[b.head].before(q.warmEnd) {
			q.warm(b)
		}
		ent := b.ents[b.head]
		if ent.stale() {
			b.ents[b.head] = entry{}
			b.head++
			q.calQ--
			continue
		}
		return ent, true
	}
	for len(q.ov) > 0 {
		top := q.ov[0]
		if top.stale() {
			q.ovPop()
			q.ovStale--
			continue
		}
		return top, true
	}
	return entry{}, false
}

// Warming a dense day. On a fabric of thousands of hosts, each event of a
// day first touches lines untouched for a lap of the calendar — its Event,
// its port, its packet, its queue — and taken one event at a time the
// misses queue up. On a day of at least warmMin entries, peek reads the next
// warmChunk entries' Events and has each Warmer argument read its own lines
// before firing the first, so the misses overlap. Sparser days skip it: their
// lines are mostly cached, and the pass would cost more than it saves.
const (
	warmMin   = 512
	warmChunk = 64
)

// Warmer is implemented by a CallAt argument that knows what its event will
// touch. Warm reads those lines and returns anything computed from them (the
// queue keeps it, so the loads are not optimized away); it must not write, as
// it runs up to a chunk of events ahead of its own, and when it runs is not
// part of the schedule's contract.
type Warmer interface {
	Warm() uint64
}

// warm reads ahead the next warmChunk entries of the cursor's day b.
// warmEnd then names the first entry it did not reach — the day's end when
// it reached the last — so each entry is read once, whatever is inserted
// into or removed from the day meanwhile.
func (q *Queue) warm(b *bucket) {
	end := min(b.head+warmChunk, len(b.ents))
	sink := q.warmSink
	for _, ent := range b.ents[b.head:end] {
		// Only CallAt-path events carry an argument, and those are never
		// cancelled or left stale.
		if w, ok := ent.ev.arg.(Warmer); ok {
			sink += w.Warm()
		}
	}
	q.warmSink = sink
	q.warmEnd = entry{at: simtime.Time((q.curDay + 1) << bucketShift)} // the day's end
	if end < len(b.ents) {
		q.warmEnd = entry{at: b.ents[end].at, seq: b.ents[end].seq}
	}
}

// popHead removes the entry peek just returned, with nothing scheduled in
// between. fromOv reports that it came from the overflow heap (the calendar
// was empty), which is the trigger for advancing the window once the clock
// catches up.
func (q *Queue) popHead() (fromOv bool) {
	if q.calQ > 0 {
		b := &q.buckets[q.curDay&bucketMask]
		b.ents[b.head] = entry{}
		b.head++
		q.calQ--
		if b.head == len(b.ents) {
			q.clearBucket(b)
		}
		return false
	}
	q.ovPop()
	return true
}

// schedule inserts a live entry for e, which must already carry (at, seq).
func (q *Queue) schedule(e *Event) {
	e.pending = true
	q.live++
	q.insert(entry{at: e.at, seq: e.seq, ev: e})
}

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it always indicates a simulator bug and would otherwise corrupt causality.
func (q *Queue) At(t simtime.Time, fn func()) *Event {
	q.checkTime(t)
	e := &Event{at: t, seq: q.seq, fn: fn, q: q}
	q.seq++
	q.schedule(e)
	return e
}

// Reserve takes the next n counter seqs, [first, first+n), for the caller to
// hand out through AtSlot: they order exactly where n At calls made now
// would, and no event scheduled later can take one.
func (q *Queue) Reserve(n int) (first uint64) {
	first = q.seq
	q.seq += uint64(n)
	return first
}

// AtSlot schedules fn at (t, seq), a slot the caller reserved, without
// consuming the counter. It reuses ev, a handle of this queue that is not
// pending, or makes one when ev is nil, and returns it.
func (q *Queue) AtSlot(ev *Event, t simtime.Time, seq uint64, fn func()) *Event {
	q.checkTime(t)
	if ev == nil {
		ev = &Event{q: q}
	}
	if ev.pooled || ev.pending || ev.q != q {
		panic("eventq: AtSlot needs an idle handle of this queue")
	}
	ev.at, ev.seq, ev.fn, ev.cancelled = t, seq, fn, false
	q.schedule(ev)
	return ev
}

// After schedules fn to run d after the current time. Negative d is clamped
// to zero.
func (q *Queue) After(d simtime.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return q.At(q.now.Add(d), fn)
}

// CallAt schedules fn(arg) at virtual time t on a recycled event. The event
// cannot be cancelled (no handle is returned); use At for cancellable timers.
// Callers pre-bind fn once (e.g. a stored method value) so the hot path
// allocates nothing: the Event comes from the free list and a pointer-typed
// arg boxes into the any without allocating.
func (q *Queue) CallAt(t simtime.Time, fn func(any), arg any) {
	q.checkTime(t)
	e := q.pooledEvent()
	e.at = t
	e.seq = q.seq
	e.afn = fn
	e.arg = arg
	e.pooled = true
	e.cancelled = false
	q.seq++
	q.schedule(e)
}

// CallAfter schedules fn(arg) to run d after the current time (negative d is
// clamped to zero) on a recycled event. See CallAt.
func (q *Queue) CallAfter(d simtime.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	q.CallAt(q.now.Add(d), fn, arg)
}

// Keyed scheduling.
//
// Events scheduled through At/After/CallAt take the queue's monotonic
// sequence counter, so their same-time tie order reflects *scheduling
// history* — which events happened to be created first. That is fine inside
// one queue, but it is exactly what a sharded simulation cannot reproduce:
// the same packet arrival is scheduled by different code paths (local
// propagation vs. cross-shard injection at a barrier) in different engines,
// and history-dependent tie-breaking would let executions diverge at
// same-nanosecond ties.
//
// CallAtSeq therefore accepts an explicit sequence key with the top bit set
// (see KeyedSeq). The (time, seq) total order then reads: at equal times,
// every counter-sequenced event fires before every keyed event (the counter
// never reaches 2^63), and keyed events order among themselves by their
// key — a function of *what* the event is (which link, which packet), not of
// when or where it was scheduled. Engines that schedule the same keyed event
// set at the same times execute identically, regardless of how the events
// got into the queue.
const keyedSeqBit = uint64(1) << 63

// KeyedSeq builds an explicit sequence key for CallAtSeq from a stream id
// and a per-stream sequence number. Keys order by (stream, n); all keyed
// events at a given time fire after all counter-sequenced events at that
// time. stream must fit in 31 bits.
func KeyedSeq(stream uint32, n uint32) uint64 {
	return keyedSeqBit | uint64(stream)<<32 | uint64(n)
}

// CallAtSeq schedules fn(arg) at virtual time t on a recycled event carrying
// the explicit sequence key seq (built with KeyedSeq) instead of the
// monotonic counter. Two keyed events with the same key must never be
// pending at once; callers guarantee this by deriving keys from per-stream
// counters. Like CallAt, the event cannot be cancelled and the path
// allocates nothing in steady state.
func (q *Queue) CallAtSeq(t simtime.Time, seq uint64, fn func(any), arg any) {
	if seq&keyedSeqBit == 0 {
		panic("eventq: CallAtSeq key missing keyed bit (use KeyedSeq)")
	}
	q.checkTime(t)
	e := q.pooledEvent()
	e.at = t
	e.seq = seq
	e.afn = fn
	e.arg = arg
	e.pooled = true
	e.cancelled = false
	q.schedule(e)
}

// Reset reschedules ev to fire fn at time t, reusing its allocation: a
// pending event's entry is replaced, a fired or cancelled-and-popped one is
// scheduled anew. A nil ev allocates, so timer owners can uniformly write
//
//	f.ev = q.Reset(f.ev, t, f.fn)
//
// and the flow's timer churn (pacing, RTO re-arming) settles into a single
// Event for the lifetime of the holder. The rescheduled event takes a fresh
// sequence number, exactly as a Cancel-plus-At pair would, so FIFO
// tie-breaking — and therefore replay determinism — is unchanged.
func (q *Queue) Reset(ev *Event, t simtime.Time, fn func()) *Event {
	q.checkTime(t)
	if ev == nil || ev.pooled {
		return q.At(t, fn)
	}
	wasPending := ev.pending
	oldLoc := ev.loc
	oldAt := ev.at
	oldSeq := ev.seq
	ev.at = t
	ev.seq = q.seq
	ev.fn = fn
	ev.cancelled = false
	q.seq++
	if oldLoc == locCal {
		// Remove the superseded calendar entry eagerly: near-horizon timer
		// churn (pacing) would otherwise grow the bucket every re-arm.
		q.removeCal(oldAt, oldSeq)
	} else if oldLoc == locOv {
		// Far-horizon entries are superseded lazily; the heap compacts when
		// stale entries reach half its size.
		q.ovStale++
		if q.ovStale*2 > len(q.ov) && len(q.ov) >= 32 {
			q.ovCompact()
		}
	}
	if !wasPending {
		ev.pending = true
		q.live++
	}
	q.insert(entry{at: t, seq: ev.seq, ev: ev})
	return ev
}

// ResetAfter is Reset positioned d after the current time (negative d is
// clamped to zero).
func (q *Queue) ResetAfter(ev *Event, d simtime.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return q.Reset(ev, q.now.Add(d), fn)
}

// pooledEvent takes an Event for the CallAt paths from the free list, or
// makes one, which pays off one Event of a restore's prewarm debt (see
// State).
func (q *Queue) pooledEvent() *Event {
	if n := len(q.free); n > 0 {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return e
	}
	q.owed = max(q.owed-1, 0)
	return &Event{q: q}
}

// recycle returns a popped CallAt event to the free list.
func (q *Queue) recycle(e *Event) {
	e.afn = nil
	e.arg = nil
	q.free = append(q.free, e)
}

// reap retires a cancelled entry that has just been removed from the
// schedule.
func (q *Queue) reap(e *Event) {
	e.loc = locNone
	if e.pooled {
		q.recycle(e)
	}
}

// fire executes the live entry ent, which has just been removed from the
// schedule (fromOv as popHead reported it), and advances the clock to it.
func (q *Queue) fire(ent entry, fromOv bool) {
	e := ent.ev
	e.loc = locNone
	e.pending = false
	q.live--
	q.now = ent.at
	q.processed++
	if fromOv && q.calQ == 0 {
		// The clock just jumped past the calendar window; move the window
		// to the present so subsequent near-future scheduling stays on
		// the bucketed fast path.
		q.rebase()
	}
	if e.pooled {
		fn, arg := e.afn, e.arg
		q.recycle(e)
		fn(arg)
	} else {
		fn := e.fn
		e.fn = nil
		fn()
	}
}

// Step executes the earliest pending event and advances the clock to it.
// It returns false when no runnable event remains.
func (q *Queue) Step() bool {
	for {
		ent, ok := q.peek()
		if !ok {
			return false
		}
		fromOv := q.popHead()
		if ent.ev.cancelled {
			q.reap(ent.ev)
			continue
		}
		q.fire(ent, fromOv)
		return true
	}
}

// RunUntil executes events with time <= deadline, then advances the clock to
// the deadline. Events scheduled during execution are honored if they fall
// within the horizon. Each event is peeked once: the loop fires the entry
// it peeked.
func (q *Queue) RunUntil(deadline simtime.Time) {
	for {
		ent, ok := q.peek()
		if !ok || ent.at > deadline {
			break
		}
		if ent.ev.cancelled {
			// Step reaps the cancelled head and fires the next live event
			// even when that lies past the deadline: the reference heap's
			// lazy-deletion behaviour, which the tests pin.
			q.Step()
			continue
		}
		q.fire(ent, q.popHead())
	}
	if q.now < deadline {
		q.now = deadline
	}
}

// RunBefore executes events with time strictly before the barrier, then
// advances the clock to the barrier. It is the conservative-sync primitive
// for sharded simulation (internal/psim): a shard runs its window
// exclusively of the barrier instant, so that cross-shard arrivals keyed at
// exactly the barrier can still be injected ahead of the local events there
// and fire in canonical (time, key) order.
func (q *Queue) RunBefore(barrier simtime.Time) {
	for {
		ent, ok := q.peek()
		if !ok {
			break
		}
		if ent.ev.cancelled {
			// Reap the lazily-deleted head here instead of handing it to
			// Step: Step skips cancelled entries and executes the next live
			// event, which may lie at or beyond the barrier — overshooting
			// the window and breaking the conservative-sync contract.
			q.popHead()
			q.reap(ent.ev)
			continue
		}
		if ent.at >= barrier {
			break
		}
		q.fire(ent, q.popHead())
	}
	if q.now < barrier {
		q.now = barrier
	}
}

// Run executes events until none remain.
func (q *Queue) Run() {
	for q.Step() {
	}
}

// insertMax is the length up to which a day, or a same-slot run within a
// dense day, is left to plain insertion. BenchmarkDenseDay has the numbers
// behind it: with uniformly random offsets insertion costs 7 ns/entry at 16
// entries, 10 at 24, 12-15 at 32 and keeps climbing, against 10 ns/entry at
// 24, 9 at 32 and 7-10 up to 2048 for the counting pass, whose fixed part is
// clearing and summing the slot counts; and 8192 entries on one nanosecond
// take 49 ns/entry merged against 680 inserted.
const insertMax = 24

// sortDay orders a bucket by (at, seq), once, when the cursor reaches it.
//
// A sparse day was appended roughly in time order, so it is nearly sorted and
// plain insertion is the cheapest thing that works. A dense day (line rate on
// a large fabric puts ~2000 entries in one 64ns day) first takes one stable
// counting pass, through q.scratch, over slots that are the leading part of
// the (at, seq) order: the nanosecond offset within the day, then the keyed
// bit, because at equal times every counter seq fires before every keyed
// one. That leaves the day ordered up to seq within each slot, and each
// slot's run still in append order — which for counter seqs *is* seq order
// (the counter is monotonic; only an entry displaced by removeCal's swap or
// re-inserted by a restore is out of place). Keyed arrivals are appended in
// the order their transmitters finished, unrelated to their keys, so
// finishing those runs is where the remaining work is: the usual run of a
// few dozen is left to the closing insertion pass, the run of thousands that
// a synchronized start puts on one nanosecond is merged first, because
// insertion's quadratic moves would dominate the whole day.
//
// The closing pass is a complete sort on its own, so the order never depends
// on distribute or mergeSort being right, only the time taken does; they
// just have to return a permutation of what they were given.
func (q *Queue) sortDay(s []entry) {
	if len(s) > insertMax {
		q.distribute(s)
	}
	insertSort(s)
}

// insertSort orders s by (at, seq) in time linear in its length plus the
// number of out-of-order pairs.
func insertSort(s []entry) {
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i - 1
		for j >= 0 && e.before(s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = e
	}
}

// distribute is the dense-day counting pass: on return s is ordered by slot,
// runs longer than insertMax are fully ordered, and shorter runs are in
// append order for insertSort to finish.
func (q *Queue) distribute(s []entry) {
	slot := func(e *entry) int {
		return int(e.at&(1<<bucketShift-1))<<1 | int(e.seq>>63)
	}
	var end [2 << bucketShift]int32 // while scattering: slot k's next index; after: its end
	for i := range s {
		end[slot(&s[i])]++
	}
	sum, longest := int32(0), int32(0)
	for k, n := range end {
		end[k] = sum
		sum += n
		longest = max(longest, n)
	}
	if cap(q.scratch) < len(s) {
		// Bucket arrays come in 4x size classes, so sizing the scratch by
		// capacity bounds its regrowth to once per class.
		q.scratch = make([]entry, cap(s))
	}
	tmp := q.scratch[:len(s)]
	for i := range s {
		k := slot(&s[i])
		tmp[end[k]] = s[i]
		end[k]++
	}
	copy(s, tmp)
	if longest > insertMax {
		lo := 0
		for _, e := range end {
			hi := int(e)
			if hi-lo > insertMax {
				mergeSort(s[lo:hi], tmp[lo:hi])
			}
			lo = hi
		}
	}
	clear(tmp) // the scratch must never pin Events between days
}

// mergeSort orders s by (at, seq) using tmp (same length) as merge space.
// Stable, so a run already in order costs one comparison per entry.
func mergeSort(s, tmp []entry) {
	if len(s) <= insertMax {
		insertSort(s)
		return
	}
	m := len(s) / 2
	mergeSort(s[:m], tmp[:m])
	mergeSort(s[m:], tmp[m:])
	if !s[m].before(s[m-1]) {
		return
	}
	// Merge the left half, moved to tmp, with the right half in place; the
	// write index never overtakes the right half's read index.
	copy(tmp, s[:m])
	i, j, k := 0, m, 0
	for i < m && j < len(s) {
		if s[j].before(tmp[i]) {
			s[k] = s[j]
			j++
		} else {
			s[k] = tmp[i]
			i++
		}
		k++
	}
	copy(s[k:], tmp[i:m])
}
