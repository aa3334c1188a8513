package snap

import (
	"fmt"
	"math"
	"testing"

	"github.com/accnet/acc/internal/psim"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
)

// The hybrid tick checks only the links netsim touched since the last tick
// and the links that are hot (hybrid.Engine.visit). These tests hold that
// against the scan of every link it replaced, and across snapshots taken
// while visits are still owed.

// visitScenario is a small fabric with everything that puts links in the
// visit set: a mixed TCP/DCQCN population (queues, pauses, demotions),
// flapping leaf–spine links — ECMP-group members — and a WRED template
// shallow enough that the four frames a starting TCP sender may park at its
// NIC (topo's inject limit) reach the queue trigger on their own.
func visitScenario(shards int, seed int64) Scenario {
	return Scenario{
		NLeaf: 4, HostsPerLeaf: 8, NSpine: 2, Shards: shards,
		Seed:  seed,
		Flows: 100, MaxBytes: 96 * simtime.KB, Spread: 400 * simtime.Microsecond, MixTCP: true,
		FaultLinks: 2, MTBF: 150 * simtime.Microsecond, MTTR: 30 * simtime.Microsecond, FaultSeed: seed + 100,
		Horizon:  simtime.Time(600 * simtime.Microsecond),
		Fidelity: "hybrid",
		WRED:     &red.Config{Kmin: 8 * simtime.KB, Kmax: 64 * simtime.KB, Pmax: 0.2},
	}
}

// visitFaults adds one-shot failures on top of the scenario's flaps: a
// second member of leaf 2's ECMP group and a host link. (Variant events are
// not captured by snapshots, so only the differential test applies them.)
func visitFaults() Variant {
	at := func(us int) simtime.Time { return simtime.Time(simtime.Duration(us) * simtime.Microsecond) }
	return Variant{Name: "down-up", Faults: []psim.FaultEvent{
		{At: at(120), Link: psim.LeafSpineLink(2, 1), Down: true},
		{At: at(260), Link: psim.LeafSpineLink(2, 1), Down: false},
		{At: at(200), Link: psim.HostLeafLink(1, 2), Down: true},
		{At: at(230), Link: psim.HostLeafLink(1, 2), Down: false},
	}}
}

func buildWorld(t *testing.T, sc Scenario, vs ...Variant) *World {
	t.Helper()
	w, err := Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, v := range vs {
		if err := w.ApplyVariant(v); err != nil {
			t.Fatalf("ApplyVariant(%s): %v", v.Name, err)
		}
	}
	return w
}

// step advances the world by one barrier window, i.e. one hybrid tick.
func step(w *World) { w.Run(w.Now().Add(w.E.Window)) }

// hotSet renders which links are demoted, by registration index.
func hotSet(w *World) string {
	b := make([]byte, len(w.Hyb.Links()))
	for i, l := range w.Hyb.Links() {
		b[i] = '.'
		if l.Hot() {
			b[i] = 'H'
		}
	}
	return string(b)
}

// TestHybridVisitSetEqualsFullScan: MarkAll followed by Tick is a check of
// every link — the deleted scan, by definition — so a world that marks all
// before every tick is the reference, with no copy of the old code. The
// event-driven world must demote and promote the same links at the same
// ticks, finish every flow at the same instant and digest equally at every
// slice, at every shard count.
func TestHybridVisitSetEqualsFullScan(t *testing.T) {
	for _, seed := range []int64{3, 7, 11} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("seed%d-shards%d", seed, shards), func(t *testing.T) {
				sc := visitScenario(shards, seed)
				ev, full := buildWorld(t, sc, visitFaults()), buildWorld(t, sc, visitFaults())
				links := uint64(len(ev.Hyb.Links()))
				for tick := 1; ev.Now() < sc.Horizon; tick++ {
					full.Hyb.MarkAll()
					step(ev)
					step(full)
					if a, b := hotSet(ev), hotSet(full); a != b {
						t.Fatalf("tick %d (%v): hot links differ\n event-driven %s\n full scan    %s", tick, ev.Now(), a, b)
					}
					if ev.Hyb.Stats != full.Hyb.Stats {
						t.Fatalf("tick %d: stats differ\n event-driven %+v\n full scan    %+v", tick, ev.Hyb.Stats, full.Hyb.Stats)
					}
					if tick%100 == 0 || ev.Now() >= sc.Horizon {
						for i := range ev.App.End {
							if ev.App.End[i] != full.App.End[i] {
								t.Fatalf("tick %d: flow %d ends %v event-driven, %v under the full scan", tick, i, ev.App.End[i], full.App.End[i])
							}
						}
						if a, b := ev.Summarize(), full.Summarize(); a != b {
							t.Fatalf("tick %d: summaries differ\n event-driven %+v\n full scan    %+v", tick, a, b)
						}
					}
				}
				st := ev.Hyb.Stats
				if st.Demotions == 0 || st.Promotions == 0 || st.AnalyticFlows == 0 || st.PacketFlows == 0 {
					t.Fatalf("scenario exercises too little: %+v", st)
				}
				if full.Hyb.LinkChecks != st.Ticks*links {
					t.Fatalf("reference made %d checks, want ticks x links = %d", full.Hyb.LinkChecks, st.Ticks*links)
				}
				if ev.Hyb.LinkChecks*2 > full.Hyb.LinkChecks {
					t.Fatalf("event-driven tick made %d checks against the scan's %d", ev.Hyb.LinkChecks, full.Hyb.LinkChecks)
				}
			})
		}
	}
}

// owedVisit reports whether some link that is not hot has a queue at or
// above the hybrid queue trigger: its port was touched after the last tick
// looked (a flow admitted at this barrier has just enqueued its first
// window), so it sits on its Network's touched list.
func owedVisit(w *World) bool {
	thr := int(math.Ceil(w.Hyb.Cfg.QueueFrac * float64(w.Hyb.Cfg.Kmin)))
	for _, l := range w.Hyb.Links() {
		if l.Hot() {
			continue
		}
		for _, q := range l.Port.Queues {
			if q.Bytes() >= thr {
				return true
			}
		}
	}
	return false
}

// TestHybridSnapshotWithOwedVisits snapshots at an instant where a touched
// list is not empty and a hot link is part-way through its promotion
// hysteresis. Neither the list nor the visit set is in the image — restore
// marks every link instead — so the restored and forked worlds must still
// run on bit-identically, and re-save the same bytes.
func TestHybridSnapshotWithOwedVisits(t *testing.T) {
	sc := visitScenario(1, 11)

	// Scout the uninterrupted run tick by tick for such an instant. A link
	// that is hot now and promoted one or two ticks later has cold > 0 now
	// (PromoteAfter is 3).
	scout := buildWorld(t, sc)
	var hot []string
	var owed []bool
	for scout.Now() < sc.Horizon {
		step(scout)
		hot = append(hot, hotSet(scout))
		owed = append(owed, owedVisit(scout))
	}
	want, wantStats := scout.Summarize(), scout.Hyb.Stats
	cooling := func(k int) bool {
		for i := range hot[k] {
			if hot[k][i] == 'H' && (hot[k+1][i] == '.' || hot[k+2][i] == '.') {
				return true
			}
		}
		return false
	}
	k := -1
	for i := 0; i+2 < len(hot) && k < 0; i++ {
		if owed[i] && cooling(i) {
			k = i
		}
	}
	if k < 0 {
		t.Fatal("no instant with an owed visit and a cooling hot link; the scenario exercises nothing")
	}
	at := simtime.Time(simtime.Duration(k+1) * scout.E.Window)
	late := Variant{Name: "late-fault", Faults: []psim.FaultEvent{
		{At: at.Add(10 * simtime.Microsecond), Link: psim.LeafSpineLink(3, 0), Down: true},
		{At: at.Add(90 * simtime.Microsecond), Link: psim.LeafSpineLink(3, 0), Down: false},
	}}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			sc := sc
			sc.Shards = shards
			warm := buildWorld(t, sc)
			warm.Run(at)
			if !owedVisit(warm) {
				t.Fatalf("no owed visit at %v in the %d-shard layout", at, shards)
			}
			img := warm.Snapshot()

			restored, err := Restore(img)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if img2 := restored.Snapshot(); string(img) != string(img2) {
				t.Fatalf("restore→snapshot is not byte-identical to the original snapshot (%d vs %d bytes)", len(img), len(img2))
			}
			restored.Run(sc.Horizon)
			got := restored.Summarize()
			// The scout is the 1-shard run; shard layouts agree on everything
			// but the event total's split, which Summarize sums.
			if got != want {
				t.Fatalf("restore≢uninterrupted:\n uninterrupted %+v\n restored      %+v", want, got)
			}
			// Demotion and promotion counts are not in the digest; they are
			// what an owed visit lost by the restore would move first.
			if restored.Hyb.Stats != wantStats {
				t.Fatalf("restore≢uninterrupted:\n uninterrupted %+v\n restored      %+v", wantStats, restored.Hyb.Stats)
			}

			forked, err := Fork(img, late)
			if err != nil {
				t.Fatalf("Fork: %v", err)
			}
			forked.Run(sc.Horizon)
			cold := buildWorld(t, sc)
			cold.Run(at)
			if err := cold.ApplyVariant(late); err != nil {
				t.Fatalf("ApplyVariant: %v", err)
			}
			cold.Run(sc.Horizon)
			if got, want := forked.Summarize(), cold.Summarize(); got != want {
				t.Fatalf("fork≢cold:\n cold %+v\n fork %+v", want, got)
			}
			if forked.Hyb.Stats != cold.Hyb.Stats {
				t.Fatalf("fork≢cold:\n cold %+v\n fork %+v", cold.Hyb.Stats, forked.Hyb.Stats)
			}
		})
	}
}
