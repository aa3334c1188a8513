package eventq

import (
	"math/rand"
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// The differential proof: the calendar Queue and the reference heap refQueue
// are driven through the same randomized sequence of At/After/CallAt/
// CallAfter/Cancel/Reset/ResetAfter/Step/RunUntil operations, including
// callbacks that schedule more events while the queue is draining. After
// every operation the clocks and live counts must agree, and at the end the
// complete firing logs — (id, time) pairs in execution order — must be
// identical. Horizons are drawn to straddle the calendar window boundary so
// the bucketed path, the overflow heap, window rebasing, and stale-entry
// compaction are all on the tested path.

type fireRec struct {
	id int
	at simtime.Time
}

type diffHarness struct {
	q *Queue
	r *refQueue

	qLog []fireRec
	rLog []fireRec

	qTimers []*Event
	rTimers []*refEvent

	qSlots [8]*Event
	rSlots [8]*refEvent
}

// childDelay derives a deterministic nested-scheduling delay from an id.
func childDelay(id int) simtime.Duration {
	return simtime.Duration(id*37%1000) + 1
}

// qFn returns a callback for the calendar queue that logs the firing and,
// for ids divisible by 5, schedules a nested child event. rFn mirrors it for
// the reference queue; the two must stay structurally identical.
func (h *diffHarness) qFn(id int) func() {
	return func() {
		h.qLog = append(h.qLog, fireRec{id, h.q.Now()})
		if id%5 == 0 {
			h.q.After(childDelay(id), h.qFn(id*1000+1))
		}
	}
}

func (h *diffHarness) rFn(id int) func() {
	return func() {
		h.rLog = append(h.rLog, fireRec{id, h.r.Now()})
		if id%5 == 0 {
			h.r.After(childDelay(id), h.rFn(id*1000+1))
		}
	}
}

// horizon draws a scheduling delay from a mix that covers the same-bucket
// fast path, the in-window common case, the window-straddling case (the
// calendar spans numBuckets<<bucketShift ns), and far-future overflow.
func horizon(rng *rand.Rand) simtime.Duration {
	switch rng.Intn(10) {
	case 0:
		return 0 // exactly at Now()
	case 1, 2, 3:
		return simtime.Duration(rng.Intn(200)) // same/adjacent bucket
	case 4, 5, 6:
		return simtime.Duration(rng.Intn(50_000)) // well inside the window
	case 7, 8:
		return simtime.Duration(rng.Intn(2 * numBuckets << bucketShift)) // straddles
	default:
		return simtime.Duration(rng.Intn(4_000_000)) // ms-scale overflow (RTO-like)
	}
}

func (h *diffHarness) check(t *testing.T, op int) {
	t.Helper()
	if h.q.Now() != h.r.Now() {
		t.Fatalf("op %d: Now diverged: calendar=%v reference=%v", op, h.q.Now(), h.r.Now())
	}
	if h.q.Processed() != h.r.Processed() {
		t.Fatalf("op %d: Processed diverged: calendar=%d reference=%d", op, h.q.Processed(), h.r.Processed())
	}
	if h.q.Pending() != h.r.Pending() {
		t.Fatalf("op %d: Pending diverged: calendar=%d reference=%d", op, h.q.Pending(), h.r.Pending())
	}
}

func (h *diffHarness) compareLogs(t *testing.T) {
	t.Helper()
	if len(h.qLog) != len(h.rLog) {
		t.Fatalf("firing counts diverged: calendar=%d reference=%d", len(h.qLog), len(h.rLog))
	}
	for i := range h.qLog {
		if h.qLog[i] != h.rLog[i] {
			t.Fatalf("firing %d diverged: calendar=%+v reference=%+v", i, h.qLog[i], h.rLog[i])
		}
	}
}

func runDifferential(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	h := &diffHarness{q: New(), r: newRef()}
	nextID := 1

	for op := 0; op < ops; op++ {
		switch rng.Intn(14) {
		case 0, 1: // cancellable timer via At
			d := horizon(rng)
			id := nextID
			nextID++
			at := h.q.Now().Add(d)
			h.qTimers = append(h.qTimers, h.q.At(at, h.qFn(id)))
			h.rTimers = append(h.rTimers, h.r.At(at, h.rFn(id)))
		case 2: // After, sometimes with a negative (clamped) delay
			d := horizon(rng)
			if rng.Intn(8) == 0 {
				d = -d
			}
			id := nextID
			nextID++
			h.qTimers = append(h.qTimers, h.q.After(d, h.qFn(id)))
			h.rTimers = append(h.rTimers, h.r.After(d, h.rFn(id)))
		case 3, 4: // pooled fast path via CallAfter
			d := horizon(rng)
			id := nextID
			nextID++
			qfn, rfn := h.qFn(id), h.rFn(id)
			h.q.CallAfter(d, func(any) { qfn() }, nil)
			h.r.CallAfter(d, func(any) { rfn() }, nil)
		case 5: // cancel a random handle (fired, pending, or already cancelled)
			if len(h.qTimers) > 0 {
				k := rng.Intn(len(h.qTimers))
				h.qTimers[k].Cancel()
				h.rTimers[k].Cancel()
			}
		case 6, 7: // timer-slot Reset churn (pacing / RTO re-arm pattern)
			d := horizon(rng)
			k := rng.Intn(len(h.qSlots))
			id := 1_000_000 + k
			h.qSlots[k] = h.q.ResetAfter(h.qSlots[k], d, h.qFn(id))
			h.rSlots[k] = h.r.ResetAfter(h.rSlots[k], d, h.rFn(id))
		case 8: // cancel a slot timer, leaving its entry for lazy deletion
			k := rng.Intn(len(h.qSlots))
			h.qSlots[k].Cancel()
			h.rSlots[k].Cancel()
		case 9: // single step
			qok := h.q.Step()
			rok := h.r.Step()
			if qok != rok {
				t.Fatalf("op %d: Step diverged: calendar=%v reference=%v", op, qok, rok)
			}
		case 10, 11: // bounded run
			d := simtime.Duration(rng.Intn(100_000))
			deadline := h.q.Now().Add(d)
			h.q.RunUntil(deadline)
			h.r.RunUntil(deadline)
		case 12, 13: // barrier-window run (psim's conservative-sync pattern)
			d := simtime.Duration(rng.Intn(100_000))
			barrier := h.q.Now().Add(d)
			h.q.RunBefore(barrier)
			h.r.RunBefore(barrier)
		}
		h.check(t, op)
	}

	h.q.Run()
	h.r.Run()
	h.check(t, ops)
	h.compareLogs(t)
	if h.q.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", h.q.Pending())
	}
}

// TestDifferentialFiringOrder fans the property over many seeds.
func TestDifferentialFiringOrder(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		runDifferential(t, seed, 400)
	}
}

// TestDifferentialLongRun is one deep workload: enough operations for many
// full window rotations, overflow migrations, and stale compactions.
func TestDifferentialLongRun(t *testing.T) {
	runDifferential(t, 424242, 8000)
}

// TestDifferentialResetStorm pins the worst case for the calendar's stale
// handling: every ACK-like tick re-arms a far-future timer, so superseded
// entries pile into the overflow heap and must be compacted without ever
// perturbing firing order.
func TestDifferentialResetStorm(t *testing.T) {
	h := &diffHarness{q: New(), r: newRef()}
	const rto = 3_000_000 // ~3ms, far beyond the calendar window
	for i := 0; i < 5000; i++ {
		h.qSlots[0] = h.q.ResetAfter(h.qSlots[0], rto, h.qFn(7))
		h.rSlots[0] = h.r.ResetAfter(h.rSlots[0], rto, h.rFn(7))
		// An ACK-like pooled event 100ns out keeps virtual time moving.
		qfn, rfn := h.qFn(i*10+1), h.rFn(i*10+1)
		h.q.CallAfter(100, func(any) { qfn() }, nil)
		h.r.CallAfter(100, func(any) { rfn() }, nil)
		h.q.Step()
		h.r.Step()
		h.check(t, i)
	}
	h.q.Run()
	h.r.Run()
	h.check(t, -1)
	h.compareLogs(t)
}

// Dense days. At line rate on a large fabric one 64ns day holds thousands
// of entries, and the calendar orders such a day with a counting pass and
// per-run merging instead of plain insertion (sortDay). runDenseDay drives
// that path against the reference heap: it piles `fill` entries — handles,
// pooled counter events and keyed arrivals, so same-nanosecond ties mix both
// seq spaces — onto `span` nanoseconds of one day, then drains the day in
// RunBefore windows whose barriers fall inside it, and between windows
// inserts into, re-arms into, re-arms out of and cancels within the
// half-drained day. The calendar's pooled events carry warm probes, so days
// past warmMin are warmed ahead of the cursor while all of that goes on:
// the order must not move, and no entry may be warmed twice or after it
// fired.
func runDenseDay(t *testing.T, seed int64, fill, span int) {
	rng := rand.New(rand.NewSource(seed))
	h := &diffHarness{q: New(), r: newRef()}
	log := &warmLog{}
	var probes []*warmProbe
	probe := func() *warmProbe {
		p := &warmProbe{log: log}
		probes = append(probes, p)
		return p
	}
	fire := func(qfn func()) func(any) {
		return func(a any) { a.(*warmProbe).fire(); qfn() }
	}
	nextID := 1
	var streamN [16]uint32
	day := simtime.Time(0)

	// add schedules one event at `at` through a randomly chosen path.
	add := func(at simtime.Time) {
		id := nextID
		nextID++
		switch rng.Intn(5) {
		case 0: // cancellable handle
			h.qTimers = append(h.qTimers, h.q.At(at, h.qFn(id)))
			h.rTimers = append(h.rTimers, h.r.At(at, h.rFn(id)))
		case 1, 2: // pooled, counter-sequenced
			qfn, rfn := h.qFn(id), h.rFn(id)
			h.q.CallAt(at, fire(qfn), probe())
			h.r.CallAt(at, func(any) { rfn() }, nil)
		default: // keyed arrival; keys bear no relation to insertion order
			s := rng.Intn(len(streamN))
			key := KeyedSeq(uint32(s), streamN[s])
			streamN[s]++
			qfn, rfn := h.qFn(id), h.rFn(id)
			h.q.CallAtSeq(at, key, fire(qfn), probe())
			refCallAtSeq(h.r, at, key, func(any) { rfn() }, nil)
		}
	}
	inDay := func() simtime.Time {
		at := day.Add(simtime.Duration(rng.Intn(span)))
		if now := h.q.Now(); at < now {
			at = now
		}
		return at
	}
	rearm := func(k int, at simtime.Time) { // slot timer k, pending or not
		h.qSlots[k] = h.q.Reset(h.qSlots[k], at, h.qFn(1_000_000+k))
		h.rSlots[k] = h.r.Reset(h.rSlots[k], at, h.rFn(1_000_000+k))
	}
	cancelOne := func() { // a random handle: fired, pending or cancelled
		k := rng.Intn(len(h.qTimers))
		h.qTimers[k].Cancel()
		h.rTimers[k].Cancel()
	}

	for round := 0; round < 3; round++ {
		// Each round's day lies a few hundred days ahead of the clock, so the
		// fill lands in an unsorted bucket well inside the window; later
		// rounds reuse (and, growing, regrow) the scratch.
		day = simtime.Time((dayOf(h.q.Now()) + 300 + int64(rng.Intn(50))) << bucketShift)
		n := fill * (round + 1)
		for i := 0; i < n; i++ {
			add(inDay())
		}
		for k := range h.qSlots { // slot timers armed into the day
			rearm(k, inDay())
		}
		for i := 0; i < n/10; i++ { // cancels and re-arms while still unsorted
			cancelOne()
			rearm(rng.Intn(len(h.qSlots)), inDay())
		}
		h.check(t, round)

		for off := 1; off <= 1<<bucketShift; off += 1 + rng.Intn(6) {
			barrier := day.Add(simtime.Duration(off))
			h.q.RunBefore(barrier)
			h.r.RunBefore(barrier)
			h.check(t, off)
			for i := rng.Intn(12); i > 0; i-- { // into the draining day
				add(inDay())
			}
			if rng.Intn(2) == 0 {
				at := inDay()
				if rng.Intn(4) == 0 { // out of the day, far enough to overflow
					at = at.Add(simtime.Duration(numBuckets << bucketShift))
				}
				rearm(rng.Intn(len(h.qSlots)), at)
			}
			if rng.Intn(2) == 0 {
				cancelOne()
			}
			if rng.Intn(3) == 0 {
				if qok, rok := h.q.Step(), h.r.Step(); qok != rok {
					t.Fatalf("Step diverged: calendar=%v reference=%v", qok, rok)
				}
			}
			h.check(t, off)
		}
	}
	h.q.Run()
	h.r.Run()
	h.check(t, -1)
	h.compareLogs(t)
	if h.q.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", h.q.Pending())
	}
	checkScratchClear(t, h.q)
	for i, p := range probes {
		if p.warms > 1 || p.late {
			t.Fatalf("seed %d: pooled event %d warmed %d times (after firing: %v)", seed, i, p.warms, p.late)
		}
	}
	if dense := fill >= warmMin; dense != (log.warms > 0) {
		t.Fatalf("seed %d: fill %d warmed %d entries", seed, fill, log.warms)
	}
}

// checkScratchClear asserts the sort scratch is all-zero between days, over
// its whole capacity: a leftover entry would pin its Event.
func checkScratchClear(t *testing.T, q *Queue) {
	t.Helper()
	for i, ent := range q.scratch[:cap(q.scratch)] {
		if ent != (entry{}) {
			t.Fatalf("scratch[%d] still holds an entry between days", i)
		}
	}
}

// TestDifferentialDenseDay covers the shapes the ordering code branches on:
// a whole-day spread (short runs, insertion finishes them), a few
// nanoseconds (runs past insertMax, merged) and a single nanosecond (one
// run per seq space — the synchronized-start day).
func TestDifferentialDenseDay(t *testing.T) {
	for _, c := range []struct{ fill, span int }{
		{2200, 1 << bucketShift},
		{2200, 3},
		{2200, 1},
		{insertMax + 1, 1 << bucketShift}, // just over the sparse/dense crossover
		{insertMax, 1 << bucketShift},     // just under it
	} {
		for seed := int64(1); seed <= 4; seed++ {
			runDenseDay(t, seed, c.fill, c.span)
		}
	}
}
