package eventq_test

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/accnet/acc/internal/eventq"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// TestSnapshotRoundTrip is the encode∘decode identity property for the
// queue's snapshot surface: for randomized schedules and partial
// execution, save → restore into a fresh queue → save again must be
// byte-identical, and the restored counters must match exactly (they are
// what makes a rebuilt world assign the same (at, seq) slots the
// original did).
func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := eventq.New()
		n := 50 + rng.Intn(300)
		for i := 0; i < n; i++ {
			at := simtime.Time(rng.Int63n(int64(80 * simtime.Microsecond)))
			if rng.Intn(2) == 0 {
				q.At(at, func() {})
			} else {
				q.CallAt(at, func(any) {}, nil)
			}
		}
		for steps := rng.Intn(n); steps > 0 && q.Step(); steps-- {
		}

		w := codec.NewWriter()
		q.State(codec.Save(w))
		img := w.Finish()

		r, err := codec.NewReader(img)
		if err != nil {
			t.Fatalf("seed %d: NewReader: %v", seed, err)
		}
		q2 := eventq.New()
		q2.State(codec.Load(r))
		if r.Err() != nil {
			t.Fatalf("seed %d: restore: %v", seed, r.Err())
		}
		if q2.Now() != q.Now() || q2.Seq() != q.Seq() || q2.Processed() != q.Processed() {
			t.Fatalf("seed %d: counters (now %v seq %d processed %d) != (now %v seq %d processed %d)",
				seed, q2.Now(), q2.Seq(), q2.Processed(), q.Now(), q.Seq(), q.Processed())
		}

		w2 := codec.NewWriter()
		q2.State(codec.Save(w2))
		if img2 := w2.Finish(); !bytes.Equal(img, img2) {
			t.Fatalf("seed %d: save∘restore∘save changed bytes (%d vs %d)", seed, len(img), len(img2))
		}
	}
}

// TestTimerSlotRoundTrip: Queue.Timer must preserve the exact (at, seq)
// slot — pending and idle timers alike.
func TestTimerSlotRoundTrip(t *testing.T) {
	q := eventq.New()
	pending := q.At(simtime.Time(30*simtime.Microsecond), func() {})
	var idle *eventq.Event // a never-armed timer slot

	w := codec.NewWriter()
	q.Timer(codec.Save(w), &pending, nil)
	q.Timer(codec.Save(w), &idle, nil)
	img := w.Finish()

	r, err := codec.NewReader(img)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	q2 := eventq.New()
	var got, idle2 *eventq.Event
	q2.Timer(codec.Load(r), &got, func() {})
	if got == nil || !got.Pending() {
		t.Fatal("pending timer did not restore as pending")
	}
	if got.Seq() != pending.Seq() {
		t.Fatalf("restored timer seq %d, want %d", got.Seq(), pending.Seq())
	}
	if q2.Timer(codec.Load(r), &idle2, func() {}); idle2 != nil {
		t.Fatal("idle timer restored as pending")
	}
	if r.Err() != nil {
		t.Fatalf("reader: %v", r.Err())
	}
}

// TestReservedSlotsOrderLikeAt: n events armed one at a time through AtSlot,
// each when the one before it fires, at seqs a Reserve block handed out
// before any other event was made, fire exactly where n At calls made at the
// reservation would have — among same-instant ties, events scheduled after
// the block, and follow-ups the fired events themselves schedule.
func TestReservedSlotsOrderLikeAt(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		starts := make([]simtime.Time, n)
		for i := range starts {
			starts[i] = simtime.Time(rng.Intn(8)) * 100 // many ties
		}
		others := make([]simtime.Time, 30)
		for i := range others {
			others[i] = simtime.Time(rng.Intn(8)) * 100
		}
		run := func(reserved bool) []int {
			q := eventq.New()
			var got []int
			fired := func(label int) {
				got = append(got, label)
				if label < n && label%3 == 0 {
					q.After(0, func() { got = append(got, 1000+label) })
				}
			}
			var first uint64
			if reserved {
				first = q.Reserve(n)
			} else {
				for i, at := range starts {
					q.At(at, func() { fired(i) })
				}
			}
			for i, at := range others {
				q.At(at, func() { fired(n + i) })
			}
			if reserved {
				order := make([]int, n)
				for i := range order {
					order[i] = i
				}
				sort.SliceStable(order, func(a, b int) bool { return starts[order[a]] < starts[order[b]] })
				var ev *eventq.Event
				next := 0
				var arm func()
				arm = func() {
					if next < n {
						i := order[next]
						ev = q.AtSlot(ev, starts[i], first+uint64(i), func() { next++; arm(); fired(i) })
					}
				}
				arm()
			}
			q.Run()
			return got
		}
		if want, got := run(false), run(true); !slices.Equal(want, got) {
			t.Fatalf("seed %d: reserved slots fired %v, At calls %v", seed, got, want)
		}
	}
}

// TestAtSlotRefusals: AtSlot arms only an idle handle of its own queue, and
// not in the past.
func TestAtSlotRefusals(t *testing.T) {
	for name, arm := range map[string]func(q *eventq.Queue, first uint64, ev *eventq.Event){
		"pending handle": func(q *eventq.Queue, first uint64, ev *eventq.Event) { q.AtSlot(ev, 20, first+1, func() {}) },
		"other queue": func(q *eventq.Queue, first uint64, ev *eventq.Event) {
			q.Run()
			eventq.New().AtSlot(ev, 20, 0, func() {})
		},
		"in the past": func(q *eventq.Queue, first uint64, ev *eventq.Event) {
			q.Run()
			q.AtSlot(ev, 5, first+1, func() {})
		},
	} {
		q := eventq.New()
		first := q.Reserve(2)
		ev := q.AtSlot(nil, 10, first, func() {})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AtSlot did not panic", name)
				}
			}()
			arm(q, first, ev)
		}()
	}
}
