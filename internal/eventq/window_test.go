package eventq

import (
	"cmp"
	"slices"
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// TestWindowMovesOnlyWhenDrained pins where the calendar's window sits: it
// does not follow the clock. A self-rescheduling 1 µs chain runs from 0 to
// 300 µs, each link also scheduling an event 140 µs ahead. While the chain
// keeps the calendar non-empty, every entry past the window (base day 0,
// ~131 µs) lands in the overflow heap and the base stays put, even as the
// clock nears the window's end. Only after the calendar drains does rebase
// move the window, and every event fires in (at, seq) order throughout.
func TestWindowMovesOnlyWhenDrained(t *testing.T) {
	const link, ahead, end = simtime.Microsecond, 140 * simtime.Microsecond, 300 * simtime.Microsecond
	windowEnd := simtime.Time(numBuckets << bucketShift)
	q := New()
	type slot struct {
		at  simtime.Time
		seq uint64
	}
	var fired []slot
	record := func(ev **Event) func() {
		return func() { fired = append(fired, slot{(*ev).at, (*ev).seq}) }
	}
	var chain func()
	var beyond, rebased int
	chain = func() {
		now := q.Now()
		if now.Add(link) <= simtime.Time(end) {
			ev := new(*Event)
			*ev = q.At(now.Add(link), func() { record(ev)(); chain() })
		}
		far := new(*Event)
		*far = q.At(now.Add(ahead), record(far))
		if (*far).at >= windowEnd && q.baseDay == 0 {
			beyond++
			if q.calQ == 0 || (*far).loc != locOv {
				t.Fatalf("at %v: an entry past the window with %d calendar entries went to loc %d, want the overflow heap", now, q.calQ, (*far).loc)
			}
		}
		if q.baseDay != 0 {
			rebased++
		}
	}
	q.At(0, chain)
	q.Run()
	if beyond < 100 {
		t.Fatalf("only %d entries went past the window before it moved; the test exercises nothing", beyond)
	}
	if rebased == 0 || q.baseDay == 0 {
		t.Fatalf("the window never moved (base day %d)", q.baseDay)
	}
	if !slices.IsSortedFunc(fired, func(a, b slot) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq)) }) {
		t.Fatal("events did not fire in (at, seq) order")
	}
	if want := 2*int(end/link) + 1; len(fired) != want {
		t.Fatalf("%d events fired, want %d", len(fired), want)
	}
}
