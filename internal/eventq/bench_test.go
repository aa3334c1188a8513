package eventq

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// BenchmarkScheduleAndRun measures raw scheduler throughput: the event rate
// bounds every simulation in this repository (~2 events per packet-hop).
func BenchmarkScheduleAndRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.After(simtime.Duration(rng.Intn(1000)), func() {})
		if q.Pending() > 1024 {
			for q.Step() {
			}
		}
	}
	for q.Step() {
	}
}

// BenchmarkCallAfterAndRun is the same workload on the pooled typed-event
// fast path — the two-events-per-packet-hop pattern the simulator actually
// uses, with no closure allocation.
func BenchmarkCallAfterAndRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := New()
	fn := func(any) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.CallAfter(simtime.Duration(rng.Intn(1000)), fn, nil)
		if q.Pending() > 1024 {
			for q.Step() {
			}
		}
	}
	for q.Step() {
	}
}

// BenchmarkTimerChurn measures the cancel-heavy pattern transports use
// (every ACK re-arms the RTO).
func BenchmarkTimerChurn(b *testing.B) {
	q := New()
	var ev *Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ev != nil {
			ev.Cancel()
		}
		ev = q.After(1000, func() {})
		if i%256 == 0 {
			q.RunUntil(q.Now().Add(1))
		}
	}
	q.Run()
}

// BenchmarkResetChurn measures the in-place re-arm pattern (pacing): the
// same Event handle rescheduled forever, entries replaced inside the
// calendar window.
func BenchmarkResetChurn(b *testing.B) {
	q := New()
	fn := func() {}
	var ev *Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev = q.ResetAfter(ev, 1000, fn)
		if i%4 == 0 {
			q.Step()
		}
	}
	q.Run()
}

func TestStressMixedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := New()
	var fired int
	var cancelled int
	var pending []*Event
	for i := 0; i < 20000; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			pending = append(pending, q.After(simtime.Duration(rng.Intn(5000)), func() { fired++ }))
		case 2:
			if len(pending) > 0 {
				k := rng.Intn(len(pending))
				if !pending[k].Cancelled() {
					pending[k].Cancel()
					cancelled++
				}
				pending = append(pending[:k], pending[k+1:]...)
			}
		}
		if i%1000 == 999 {
			q.RunUntil(q.Now().Add(500))
		}
	}
	q.Run()
	// Some cancels target already-fired events, so we can only bound below.
	if fired == 0 || cancelled == 0 {
		t.Fatalf("stress did not exercise both paths: fired=%d cancelled=%d", fired, cancelled)
	}
	if q.Len() != 0 || q.Pending() != 0 {
		t.Fatalf("Len=%d Pending=%d after Run, want 0/0", q.Len(), q.Pending())
	}
}

// denseDay builds one day's worth of unsorted entries the way a line-rate
// fabric fills it: nanosecond offsets uniform over span (the whole day is
// 1<<bucketShift), half the entries counter-sequenced (appended in
// increasing seq order, like txDone events) and half keyed arrivals whose
// keys bear no relation to append order.
func denseDay(n, span int, seed int64) []entry {
	rng := rand.New(rand.NewSource(seed))
	ev := &Event{}
	s := make([]entry, n)
	for i := range s {
		at := simtime.Time(rng.Intn(span))
		if rng.Intn(2) == 0 {
			s[i] = entry{at: at, seq: uint64(i), ev: ev}
		} else {
			s[i] = entry{at: at, seq: KeyedSeq(uint32(rng.Intn(1<<20)), uint32(i)), ev: ev}
		}
	}
	return s
}

// BenchmarkDenseDay measures ordering one day at occupancies on both sides of
// the sparse/dense crossover and far above it, plus the synchronized-start
// shape that puts a whole day on one nanosecond. ns/entry is the figure to
// compare across sizes (a linear-time sort keeps it flat).
func BenchmarkDenseDay(b *testing.B) {
	for _, c := range []struct{ n, span int }{
		{16, 64}, {24, 64}, {32, 64}, {64, 64}, {512, 64}, {2048, 64}, {8192, 64}, {8192, 1},
	} {
		b.Run(fmt.Sprintf("%d-over-%dns", c.n, c.span), func(b *testing.B) {
			tmpl := denseDay(c.n, c.span, 1)
			s := make([]entry, c.n)
			q := New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(s, tmpl)
				q.sortDay(s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.n), "ns/entry")
		})
	}
}
