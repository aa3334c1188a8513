package snap

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/accnet/acc/internal/psim"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/rl"
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

// TestRestoreSharesExperience: a restore holds each state vector its
// replay memories hold once, however many transitions and memories refer
// to it — a transition's Next is the next one's State, and an exchange
// copies transitions into the global memory — instead of decoding every
// reference into a row of its own. Rows are interned by their bits,
// so vectors the live world made apart but that hold equal bits become one
// row too: the fork holds as many rows as the live world holds distinct
// values. At the 300 µs point TestForkAllocs forks, the fork also
// re-snapshots to the image's bytes and runs on as the uninterrupted world
// does.
func TestRestoreSharesExperience(t *testing.T) {
	live := forkWorld(t, 300*simtime.Microsecond)
	img := live.Snapshot()
	fork, err := Fork(img, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	refs, rows, values := experienceRows(live)
	forkRefs, forkRows, forkValues := experienceRows(fork)
	t.Logf("%d row references: %d rows and %d distinct values live, %d rows restored", refs, rows, values, forkRows)
	if values >= refs {
		t.Fatalf("the %d references hold %d distinct values: nothing to share", refs, values)
	}
	if forkRefs != refs || forkValues != values || forkRows != values {
		t.Fatalf("the fork holds %d rows of %d values over %d references; the live world %d values over %d",
			forkRows, forkValues, forkRefs, values, refs)
	}
	if !bytes.Equal(fork.Snapshot(), img) {
		t.Fatal("the fork re-snapshots to other bytes than the image it came from")
	}
	on := simtime.Time(700 * simtime.Microsecond) // past tuner ticks that read the restored rows
	live.Run(on)
	fork.Run(on)
	if got, want := fork.Summarize(), live.Summarize(); got != want {
		t.Fatalf("fork≢cold:\n cold %+v\n fork %+v", want, got)
	}
}

// TestRestoreGlobalReplay: a snapshot taken after the first replay
// exchange (DefaultSystemConfig's ExchangePeriod, 5 ms) carries global
// replays that hold transitions — some of them rows the agents' own
// memories hold too — and a restore of it re-snapshots to the image's
// bytes and runs on as the uninterrupted world does.
func TestRestoreGlobalReplay(t *testing.T) {
	sc := testScenario(2, "packet")
	sc.ACC, sc.Spread, sc.Horizon = true, 5*simtime.Millisecond, simtime.Time(6*simtime.Millisecond)
	live, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	live.Run(simtime.Time(5500 * simtime.Microsecond))
	img := live.Snapshot()
	restored, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range restored.ACC {
		if s.Exchanges == 0 || s.Global.Len() == 0 || s.Global.Len() != live.ACC[i].Global.Len() {
			t.Fatalf("shard %d: the image's global replay holds %d transitions after %d exchanges, the live one %d",
				i, s.Global.Len(), s.Exchanges, live.ACC[i].Global.Len())
		}
	}
	if !bytes.Equal(restored.Snapshot(), img) {
		t.Fatal("the restore re-snapshots to other bytes than the image it came from")
	}
	live.Run(sc.Horizon)
	restored.Run(sc.Horizon)
	if got, want := restored.Summarize(), live.Summarize(); got != want {
		t.Fatalf("restore≢cold:\n cold %+v\n restored %+v", want, got)
	}
}

// forkWorld is the sweep-fork bench's scenario run to the given instant.
func forkWorld(tb testing.TB, at simtime.Duration) *World {
	sc := Scenario{NLeaf: 12, HostsPerLeaf: 24, NSpine: 6, Shards: 1,
		Flows: 3000, MaxBytes: 512 << 10, Spread: 2 * simtime.Millisecond,
		ACC: true, Fidelity: "packet", Horizon: simtime.Time(2 * simtime.Millisecond), Seed: 1}
	w, err := Build(sc)
	if err != nil {
		tb.Fatal(err)
	}
	w.Run(simtime.Time(at))
	return w
}

// experienceRows counts the state vectors w's replay memories hold — the
// global ones and every agent's — as references, as rows told apart by
// their first cell's address, and as values told apart by their cells'
// bits.
func experienceRows(w *World) (refs, rows, values int) {
	seenRow, seenValue := map[*float64]bool{}, map[string]bool{}
	count := func(rp *rl.Replay) {
		for i := range rp.Len() {
			for _, row := range [][]float64{rp.At(i).State, rp.At(i).Next} {
				refs++
				if len(row) > 0 && !seenRow[&row[0]] {
					seenRow[&row[0]] = true
					rows++
				}
				var key []byte
				for _, x := range row {
					key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
				}
				if !seenValue[string(key)] {
					seenValue[string(key)] = true
					values++
				}
			}
		}
	}
	for _, s := range w.ACC {
		count(s.Global)
		agents := map[*rl.Agent]bool{}
		for _, t := range s.Tuners {
			if !agents[t.Agent] {
				agents[t.Agent] = true
				count(t.Agent.Memory)
			}
		}
	}
	return refs, rows, values
}
