package eventq

import (
	"container/heap"
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// Fuzz harness: interprets the input as an operation stream driven through
// the calendar queue and the reference heap simultaneously, asserting they
// agree on clock, pending count, and complete firing order. The seed corpus
// encodes the parallel engine's hot patterns — barrier windows (RunBefore)
// interleaved with keyed injection at exactly the barrier instant and timer
// cancel/reset churn below it — so the lazy-deletion interactions that bit
// the sharded engine stay pinned under mutation.

// refCallAtSeq mirrors Queue.CallAtSeq on the reference heap. It lives in
// the fuzz test, not reference_test.go: the reference is a frozen copy of the
// pre-calendar scheduler, and keyed scheduling only needs the heap's
// ordering, which already compares (at, seq).
func refCallAtSeq(q *refQueue, t simtime.Time, seq uint64, fn func(any), arg any) {
	q.checkTime(t)
	heap.Push(&q.h, &refEvent{at: t, seq: seq, afn: fn, arg: arg, pooled: true})
}

// fuzzOps decodes data as (op, operand) byte pairs and replays them on both
// schedulers, returning the two firing logs after a full drain.
func fuzzOps(t *testing.T, data []byte) (qLog, rLog []uint64) {
	t.Helper()
	q, r := New(), newRef()
	var qTimers []*Event
	var rTimers []*refEvent
	var streamN [8]uint32
	nextID := uint64(1)

	logQ := func(id uint64) func() { return func() { qLog = append(qLog, id) } }
	logR := func(id uint64) func() { return func() { rLog = append(rLog, id) } }

	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		d := simtime.Duration(arg) * 37 // spans in-bucket, cross-bucket, overflow
		switch op % 8 {
		case 0: // cancellable timer
			id := nextID
			nextID++
			at := q.Now().Add(d)
			qTimers = append(qTimers, q.At(at, logQ(id)))
			rTimers = append(rTimers, r.At(at, logR(id)))
		case 1: // pooled one-shot
			id := nextID
			nextID++
			qfn, rfn := logQ(id), logR(id)
			q.CallAfter(d, func(any) { qfn() }, nil)
			r.CallAfter(d, func(any) { rfn() }, nil)
		case 2: // keyed injection — d=0 lands exactly on the current barrier
			stream := uint32(arg) & 7
			key := KeyedSeq(stream, streamN[stream])
			streamN[stream]++
			at := q.Now().Add(d)
			qfn, rfn := logQ(key), logR(key)
			q.CallAtSeq(at, key, func(any) { qfn() }, nil)
			refCallAtSeq(r, at, key, func(any) { rfn() }, nil)
		case 3: // cancel (fired, pending, or repeat — all legal)
			if len(qTimers) > 0 {
				k := int(arg) % len(qTimers)
				qTimers[k].Cancel()
				rTimers[k].Cancel()
			}
		case 4: // reset churn (pacing / RTO re-arm)
			if len(qTimers) > 0 {
				k := int(arg) % len(qTimers)
				id := nextID
				nextID++
				at := q.Now().Add(d)
				qTimers[k] = q.Reset(qTimers[k], at, logQ(id))
				rTimers[k] = r.Reset(rTimers[k], at, logR(id))
			}
		case 5: // barrier window — the conservative-sync primitive
			b := q.Now().Add(d)
			q.RunBefore(b)
			r.RunBefore(b)
		case 6: // inclusive bounded run
			dl := q.Now().Add(d)
			q.RunUntil(dl)
			r.RunUntil(dl)
		case 7: // single step
			if qok, rok := q.Step(), r.Step(); qok != rok {
				t.Fatalf("op %d: Step diverged: calendar=%v reference=%v", i/2, qok, rok)
			}
		}
		if q.Now() != r.Now() {
			t.Fatalf("op %d: clock diverged: calendar=%v reference=%v", i/2, q.Now(), r.Now())
		}
		if q.Pending() != r.Pending() {
			t.Fatalf("op %d: pending diverged: calendar=%d reference=%d", i/2, q.Pending(), r.Pending())
		}
	}
	q.Run()
	r.Run()
	return qLog, rLog
}

func FuzzDifferentialSchedule(f *testing.F) {
	// psim window loop: timers below the barrier, a cancel leaving a stale
	// head, then RunBefore to the barrier and keyed injection exactly at it
	// (the TestRunBeforeCancelledHead scenario, generalized).
	f.Add([]byte{
		0, 1, // timer at +37
		0, 4, // timer at +148
		3, 0, // cancel the first — stale head below the barrier
		5, 4, // RunBefore(+148): must stop at the live event
		2, 0, // keyed injection exactly at the barrier
		5, 8, // next window fires both
	})
	// Keyed merge order: many streams injected out of order at one instant.
	f.Add([]byte{
		2, 5, 2, 3, 2, 5, 2, 1, 2, 0, 2, 7, 2, 3,
		5, 9, 5, 9,
	})
	// RTO churn: arm, re-arm far (overflow), cancel, window runs.
	f.Add([]byte{
		0, 2, 4, 0, 4, 200, 4, 0, 3, 0, 0, 3, 5, 255, 6, 10, 7, 0,
	})
	// Dense same-instant mix: counter and keyed events at one time must
	// fire counter-first, keyed in key order.
	f.Add([]byte{
		0, 0, 2, 0, 0, 0, 2, 4, 1, 0, 5, 1,
	})
	// Dense days: more than insertMax entries in one 64ns day, so the
	// counting pass orders it. A keyed op's operand is both its stream and
	// its delay/37, so two streams meet on one nanosecond only if the clock
	// moves between them.
	//
	// Day 0 dense over two nanoseconds (+0 and +37) with timers, pooled and
	// keyed entries interleaved; a window that stops between the two, then
	// inserts, a cancel and a reset into the half-drained day.
	var dense []byte
	for i := 0; i < 30; i++ {
		dense = append(dense, 0, 0, 1, 1, 2, 0, 2, 1, 0, 1, 1, 0)
	}
	dense = append(dense, 5, 1, 2, 0, 0, 0, 3, 7, 4, 9, 7, 0, 5, 1, 6, 2)
	f.Add(dense)
	// One nanosecond (259) of a later day, reached in reverse key order: a
	// timer at +37 pins the cursor in day 0 while the clock advances to it,
	// so stream 6 is appended behind stream 7 in a still-unsorted bucket,
	// with pooled counter entries behind both. The keyed run is long enough
	// to be merged. Steps then drain part of the day between inserts at the
	// current nanosecond, cancels and resets.
	long := []byte{0, 1}
	for i := 0; i < 20; i++ {
		long = append(long, 2, 7)
	}
	long = append(long, 5, 1)
	for i := 0; i < 20; i++ {
		long = append(long, 2, 6, 1, 6)
	}
	long = append(long, 5, 6)
	for i := 0; i < 10; i++ {
		long = append(long, 7, 0, 7, 0, 2, 0, 0, 0, 3, byte(i), 4, byte(i))
	}
	long = append(long, 5, 7)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		qLog, rLog := fuzzOps(t, data)
		if len(qLog) != len(rLog) {
			t.Fatalf("fired %d events, reference fired %d", len(qLog), len(rLog))
		}
		for i := range qLog {
			if qLog[i] != rLog[i] {
				t.Fatalf("firing %d diverged: calendar=%d reference=%d", i, qLog[i], rLog[i])
			}
		}
	})
}
