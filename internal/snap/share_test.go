package snap

import (
	"slices"
	"sync"
	"testing"

	"github.com/accnet/acc/internal/psim"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
)

// TestWorldsShareScenarioPlan: the plan is a pure function of the scenario
// fields it is drawn from, so Build, Restore and Fork of one scenario hand
// every world the same *psim.Plan (and so, per shard count, the same start
// layout: psim's TestStartLayoutShared). A change to any of those fields
// draws a new plan; fields the plan does not read, Shards among them, keep
// it.
func TestWorldsShareScenarioPlan(t *testing.T) {
	build := func(sc Scenario) *World {
		t.Helper()
		w, err := Build(sc)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return w
	}
	sc := testScenario(2, "packet")
	w := build(sc)
	w.Run(sc.Horizon / 2)
	img := w.Snapshot()
	restored, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := Fork(img, Variant{Name: "wred", WRED: &red.Config{Kmin: 10 * simtime.KB, Kmax: 40 * simtime.KB, Pmax: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]*World{"Build": build(sc), "Restore": restored, "Fork": forked} {
		if o.Plan != w.Plan {
			t.Errorf("%s: plan %p, want the first world's %p", name, o.Plan, w.Plan)
		}
	}

	for _, m := range []struct {
		field string
		mut   func(*Scenario)
	}{
		{"Seed", func(sc *Scenario) { sc.Seed++ }},
		{"NLeaf", func(sc *Scenario) { sc.NLeaf++ }},
		{"HostsPerLeaf", func(sc *Scenario) { sc.HostsPerLeaf++ }},
		{"NSpine", func(sc *Scenario) { sc.NSpine++ }},
		{"Flows", func(sc *Scenario) { sc.Flows++ }},
		{"MaxBytes", func(sc *Scenario) { sc.MaxBytes += simtime.KB }},
		{"Spread", func(sc *Scenario) { sc.Spread += simtime.Microsecond }},
		{"MixTCP", func(sc *Scenario) { sc.MixTCP = !sc.MixTCP }},
		{"FaultLinks", func(sc *Scenario) { sc.FaultLinks++ }},
		{"MTBF", func(sc *Scenario) { sc.MTBF += simtime.Microsecond }},
		{"MTTR", func(sc *Scenario) { sc.MTTR += simtime.Microsecond }},
		{"FaultSeed", func(sc *Scenario) { sc.FaultSeed++ }},
		{"Horizon", func(sc *Scenario) { sc.Horizon += simtime.Time(simtime.Microsecond) }},
	} {
		alt := sc
		m.mut(&alt)
		if base, got := build(sc), build(alt); got.Plan == base.Plan {
			t.Errorf("changing %s kept the plan", m.field)
		}
	}

	base := build(sc)
	alt := sc
	alt.Shards, alt.ACC, alt.SamplePeriod, alt.WRED = 4, true, 10*simtime.Microsecond, &red.Config{Kmin: 20 * simtime.KB, Kmax: 80 * simtime.KB, Pmax: 0.2}
	if got := build(alt); got.Plan != base.Plan {
		t.Error("fields the plan does not read changed the plan")
	}
}

// TestConcurrentForksMatchColdRuns forks eight branches of one image at
// once, after another scenario has taken the plan cache, so the forks race
// to draw the plan and lay it out again, then share both while they run.
// Each branch must end where its cold run, built and run alone, does. The
// race detector watches the shared plan, its layouts and the cache.
func TestConcurrentForksMatchColdRuns(t *testing.T) {
	sc := testScenario(2, "packet")
	branch := simtime.Time(60 * simtime.Microsecond)
	var variants []Variant
	for i := range 8 {
		kmin := (2 + 2*i) * simtime.KB
		variants = append(variants, Variant{WRED: &red.Config{Kmin: kmin, Kmax: 2 * kmin, Pmax: 0.9}})
		if i%2 == 1 {
			variants[i].Faults = []psim.FaultEvent{
				{At: branch.Add(10 * simtime.Microsecond), Link: psim.LeafSpineLink(i/2, 1), Down: true},
				{At: branch.Add(simtime.Duration(40+20*i) * simtime.Microsecond), Link: psim.LeafSpineLink(i/2, 1)},
			}
		}
	}
	cold := make([]uint64, len(variants))
	for i, v := range variants {
		w, err := Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		w.Run(branch)
		if err := w.ApplyVariant(v); err != nil {
			t.Fatal(err)
		}
		w.Run(sc.Horizon)
		cold[i] = w.Summarize().Digest
	}
	distinct := slices.Clone(cold)
	slices.Sort(distinct)
	if n := len(slices.Compact(distinct)); n < len(variants) {
		t.Fatalf("the %d variants end in %d ways: some branches exercise nothing", len(variants), n)
	}

	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(branch)
	img := w.Snapshot()
	other := sc
	other.Seed++
	if _, err := Build(other); err != nil {
		t.Fatal(err)
	}
	warm := make([]uint64, len(variants))
	errs := make([]error, len(variants))
	var wg sync.WaitGroup
	for i, v := range variants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := Fork(img, v)
			if errs[i] = err; err == nil {
				f.Run(sc.Horizon)
				warm[i] = f.Summarize().Digest
			}
		}()
	}
	wg.Wait()
	for i := range variants {
		if errs[i] != nil || warm[i] != cold[i] {
			t.Errorf("branch %d: fork digest %016x (err %v), cold %016x", i, warm[i], errs[i], cold[i])
		}
	}
}
