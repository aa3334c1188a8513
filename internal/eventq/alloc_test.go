//go:build !race

package eventq

import (
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// warmRotation drives the queue through more than one full calendar window
// so every bucket's entry slice has grown to its steady-state capacity. The
// alloc pins below assert the *steady-state* hot path; the one-time bucket
// growth during the first rotation is expected and amortized.
func warmRotation(q *Queue, step simtime.Duration, fn func(any), arg any) {
	span := simtime.Duration(2 * numBuckets << bucketShift)
	for d := simtime.Duration(0); d < span; d += step {
		q.CallAfter(step, fn, arg)
		q.Step()
	}
}

// TestAllocFreeCallPath pins the typed-event fast path at zero allocations:
// schedule-plus-fire through CallAfter must recycle Event structs from the
// queue's free list — and calendar bucket storage — once warmed up. This is
// the per-packet-hop path (two events per hop), so a single allocation here
// multiplies into millions per experiment.
func TestAllocFreeCallPath(t *testing.T) {
	q := New()
	fn := func(any) {}
	arg := &struct{ n int }{} // pointer arg boxes into any without allocating
	warmRotation(q, 10, fn, arg)

	avg := testing.AllocsPerRun(1000, func() {
		q.CallAfter(simtime.Duration(10), fn, arg)
		q.Step()
	})
	if avg != 0 {
		t.Fatalf("CallAfter+Step allocates %v/op, want 0", avg)
	}
}

// TestAllocFreeResetPath pins timer reuse at zero allocations: the
// Reset-based re-arm pattern (pacing, RTO) must reuse the holder's single
// Event for both the fired-and-rearmed and the pending-reschedule cases.
func TestAllocFreeResetPath(t *testing.T) {
	q := New()
	fn := func() {}
	ev := q.ResetAfter(nil, 1, fn) // initial allocation
	q.Run()
	// Warm the bucket storage across a full window rotation.
	for i := 0; i < 40000; i++ {
		ev = q.ResetAfter(ev, 10, fn)
		q.Step()
	}

	avg := testing.AllocsPerRun(1000, func() {
		ev = q.ResetAfter(ev, 10, fn)
		q.Step()
	})
	if avg != 0 {
		t.Fatalf("fired-event ResetAfter allocates %v/op, want 0", avg)
	}

	// Pending reschedule: the event never fires between resets. The
	// superseded calendar entry is removed in place, so this cannot grow the
	// bucket either.
	avg = testing.AllocsPerRun(1000, func() {
		ev = q.ResetAfter(ev, 10, fn)
	})
	if avg != 0 {
		t.Fatalf("pending-event ResetAfter allocates %v/op, want 0", avg)
	}
	q.Run()
}

// TestAllocFreeOverflowChurn pins the far-future re-arm pattern (per-ACK RTO
// reset, ~ms beyond the calendar window) at zero steady-state allocations:
// superseded entries go stale in the overflow heap and are compacted in
// place, never by reallocating.
func TestAllocFreeOverflowChurn(t *testing.T) {
	q := New()
	fn := func() {}
	afn := func(any) {}
	const rto = 3 * simtime.Millisecond
	var ev *Event
	// Warm: enough churn to reach the compaction threshold several times and
	// settle every backing array, across multiple window rebases.
	for i := 0; i < 40000; i++ {
		ev = q.ResetAfter(ev, rto, fn)
		q.CallAfter(100, afn, nil)
		q.Step()
	}

	avg := testing.AllocsPerRun(1000, func() {
		ev = q.ResetAfter(ev, rto, fn)
		q.CallAfter(100, afn, nil)
		q.Step()
	})
	if avg != 0 {
		t.Fatalf("overflow Reset churn allocates %v/op, want 0", avg)
	}
	ev.Cancel()
	q.Run()
}

// TestAllocFreeDenseDay pins dense-day ordering at zero steady-state
// allocations: once the slab pool and the sort scratch have grown to a
// day's occupancy, filling and draining another day of the same shape —
// counting pass, long-run merges and all — reuses both. It also checks the
// scratch is left all-zero, so it never pins the Events of a drained day.
func TestAllocFreeDenseDay(t *testing.T) {
	q := New()
	fn := func(any) {}
	arg := &struct{ n int }{}
	var n uint32
	fillAndDrain := func() {
		day := simtime.Time((dayOf(q.Now()) + 2) << bucketShift)
		for i := 0; i < 2048; i++ {
			// Half the entries share one nanosecond, so the day has both
			// insertion-length runs and a run long enough to be merged.
			at := day.Add(simtime.Duration(i % (1 << bucketShift)))
			if i%2 == 0 {
				at = day
			}
			if i%3 == 0 {
				q.CallAt(at, fn, arg)
			} else {
				q.CallAtSeq(at, KeyedSeq(uint32(i*7919)&0xffff, n), fn, arg)
				n++
			}
		}
		q.Run()
	}
	for i := 0; i < 3; i++ {
		fillAndDrain()
	}
	if cap(q.scratch) < 2048 {
		t.Fatalf("scratch holds %d entries after dense days of 2048: the dense path did not run", cap(q.scratch))
	}
	if avg := testing.AllocsPerRun(20, fillAndDrain); avg != 0 {
		t.Fatalf("a steady-state dense day allocates %v/op, want 0", avg)
	}
	checkScratchClear(t, q)
}

// TestAllocFreeWarmDay pins the warm-ahead pass at zero allocations: a
// steady-state dense day whose every argument is a Warmer — the interface
// assertion and the Warm calls included — allocates nothing.
func TestAllocFreeWarmDay(t *testing.T) {
	q := New()
	log := &warmLog{}
	probes := make([]warmProbe, 4*warmMin)
	for i := range probes {
		probes[i].log = log
	}
	fn := func(a any) { a.(*warmProbe).fire() }
	fillAndDrain := func() {
		day := simtime.Time((dayOf(q.Now()) + 2) << bucketShift)
		for i := range probes {
			q.CallAt(day.Add(simtime.Duration(i%(1<<bucketShift))), fn, &probes[i])
		}
		q.Run()
	}
	for i := 0; i < 3; i++ {
		fillAndDrain()
	}
	if log.warms != log.fires {
		t.Fatalf("%d warms for %d fires: the warm path did not run", log.warms, log.fires)
	}
	if avg := testing.AllocsPerRun(20, fillAndDrain); avg != 0 {
		t.Fatalf("a steady-state warmed day allocates %v/op, want 0", avg)
	}
}
