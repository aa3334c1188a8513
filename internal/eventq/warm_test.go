package eventq

import (
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// warmLog is what the warm probes of one test share: how many Warm calls
// and how many fires they have seen, in total.
type warmLog struct{ warms, fires int }

// warmProbe is a Warmer event argument that checks the warm-ahead contract
// from outside: it counts its own Warm calls and fires, and notes a Warm
// that came after its event fired. Counting is a write, which real Warmers
// must not do; the probes of a test are owned by that test alone.
type warmProbe struct {
	log          *warmLog
	warms, fires int
	late         bool // Warm ran after the event fired
}

func (p *warmProbe) Warm() uint64 {
	p.late = p.late || p.fires > 0
	p.warms++
	p.log.warms++
	return 1
}

func (p *warmProbe) fire() {
	p.fires++
	p.log.fires++
}

// TestWarmOncePerEntry drains days of every size around warmMin. A day of
// at least warmMin entries has each entry warmed exactly once, before it
// fires, and never more than a chunk of entries warmed ahead of the cursor;
// a sparser day is never warmed.
func TestWarmOncePerEntry(t *testing.T) {
	for _, n := range []int{1, warmMin - 1, warmMin, warmMin + warmChunk/2, 5 * warmMin} {
		q := New()
		log := &warmLog{}
		probes := make([]warmProbe, n)
		dense := n >= warmMin
		fn := func(a any) {
			p := a.(*warmProbe)
			ahead := log.warms - log.fires // warmed, not yet fired, this one included
			p.fire()
			if dense && (p.warms != 1 || ahead < 1 || ahead > warmChunk) {
				t.Fatalf("n=%d: entry fired with %d warms and %d entries warmed ahead, want 1 and 1..%d", n, p.warms, ahead, warmChunk)
			}
		}
		day := simtime.Time(5 << bucketShift)
		for i := range probes {
			probes[i].log = log
			at := day.Add(simtime.Duration(i * 7 % (1 << bucketShift)))
			if i%2 == 0 {
				q.CallAt(at, fn, &probes[i])
			} else {
				q.CallAtSeq(at, KeyedSeq(uint32(i%13), uint32(i)), fn, &probes[i])
			}
		}
		q.Run()
		want := 0
		if dense {
			want = n
		}
		if log.warms != want || log.fires != n {
			t.Fatalf("n=%d: %d warms and %d fires, want %d and %d", n, log.warms, log.fires, want, n)
		}
	}
}
