package exp

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the checked-in golden tables under testdata/")

// goldenIDs are the experiments TestGoldenTables pins. These six are the
// figures the benchmark's paper-figs workload runs (fig6, fig8, fig10,
// fig14, fig16) and robust-linkfail; golden_slow_test.go adds, outside the
// race detector, the runners that share their scenario and deployment code.
var goldenIDs = []string{"fig6", "fig8", "fig10", "fig14", "fig16", "robust-linkfail"}

// TestGoldenTables pins the rendered tables of every goldenIDs experiment
// to checked-in byte-exact golden files, one subtest per id
// (-run TestGoldenTables/fig12). TestDeterminismSameSeed only proves a run
// agrees with itself; this test proves the output also agrees with the
// output of every previous checkout — the property that lets the event
// scheduler, the experiment runners or any other internals be rewritten with
// confidence. Regenerate deliberately with:
//
//	go test ./internal/exp -run TestGoldenTables -update-golden
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			t.Parallel() // each Run builds its own worlds; PretrainedModel is mutex-guarded
			checkGolden(t, id)
		})
	}
}

// goldenOptions are the options id's golden table is rendered at: scale
// 0.25, or goldenScale[id], with a four-episode model.
func goldenOptions(id string) Options {
	o := DefaultOptions()
	o.Scale = 0.25
	if s, ok := goldenScale[id]; ok {
		o.Scale = s
	}
	o.OfflineEpisodes = 4
	return o
}

// goldenScale runs the comparisons long enough for the mechanism that
// separates their arms to act. At 0.25 each of them runs its arms
// bit-identically (TestGoldenArmsDiverge).
var goldenScale = map[string]float64{
	// C-ACC first actuates at 3 ms (centralPeriod + controlDelay), after
	// the 2 ms arrival window, so it ran DefaultRED, which is SECN1.
	"fig14": 0.5,
	// At 0.25 no agent has reached TargetSync's 100 train steps; at 1
	// every agent has (100–324), so each is past a target sync.
	"ablation-ddqn": 1,
	// Past the first exchange at 5 ms: the 3 ms run at 0.25 ended before
	// it, and the 6 ms run at 0.5 one millisecond after it, still tied.
	"ablation-exchange": 1,
}

// goldenArms holds the arms of each experiment TestGoldenTables ran, for
// TestGoldenArmsDiverge.
var goldenArms sync.Map // id → []*armRecord

// checkGolden runs id at golden options and compares its tables with
// testdata/<id>.golden, or rewrites that file under -update-golden. It
// stores the run's arms in goldenArms.
func checkGolden(t *testing.T, id string) {
	var tables []*Table
	var err error
	goldenArms.Store(id, recorder.record(id, func() { tables, err = Run(id, goldenOptions(id)) }))
	if err != nil {
		t.Fatal(err)
	}
	got := renderTables(tables)
	path := filepath.Join("testdata", id+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from golden table:\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
	}
}

// TestPretrainedWeightDigest pins the four-episode model every golden run
// above deploys: FNV-64a over the little-endian Float64bits of W rows then
// B, layer by layer. The tables would also move if training did, but only
// through an argmax; this fails on the first differing bit. The value was
// recorded before internal/rl's kernels were row-blocked, so it also holds
// them to the arithmetic they replaced on a real training run (the
// 24-episode default reads e3fd38e35a64bf60 the same way).
func TestPretrainedWeightDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	m := PretrainedModel(4)
	h := fnv.New64a()
	var b [8]byte
	put := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for l := range m.W {
		for _, row := range m.W[l] {
			put(row)
		}
		put(m.B[l])
	}
	const want = "fdf261adef8455b4"
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("PretrainedModel(4) weight digest %s, want %s", got, want)
	}
}

// expectedTies are the golden comparisons whose arms may run
// bit-identically, by experiment and the tied arms' run digest, each with
// the reason measured for it.
var expectedTies = map[string]string{
	"fig2 bf131821857cdfb5": dataMiningTie, // Scenario-1
	// fig13's DataMining table, one tie per run (seeds 1, 101 and 201).
	"fig13 dd9ae26b6e396fc8": dataMiningTie,
	"fig13 8e41d2cbf18dedd0": dataMiningTie,
	"fig13 8b1040c44ead62fb": dataMiningTie,
	// Both differ at scale 0.5, which would add about 2 s of test CPU.
	"hybrid 808dc05177595686": "D-ACC = Hybrid: Hybrid's first weight push lands at 4 ms, the end " +
		"of the run; its switches mark 370 KB where D-ACC's mark none, but no completed flow moves",
	"robust-telemetry b4179f6ccfb6142b": "faulted = clean ACC: neither arm marks a byte; the faulted " +
		"arm settles on 2.5 MB thresholds and the clean one on 10 MB, and no queue reaches either",
}

// dataMiningTie is why the DataMining comparisons tie: no switch queue
// marks a byte under any arm (TxMarkedBytes sums to 0 in every arm at
// scales 0.25, 0.5 and 1), so the ECN setting acts on nothing. A
// DataMining flow averages 12.7 MB, so a short run draws a handful (fig2
// completes 5 at 0.25 and 24 at 1), too few to congest a queue.
const dataMiningTie = "no arm marks a packet"

// TestGoldenArmsDiverge: a golden whose arms run bit-identically pins
// nothing about what separates them. No two arms of one comparison (one
// runArms call) may complete the same flows at the same instants (the run
// digest) unless expectedTies names that tie. It reads the arms
// TestGoldenTables recorded, and runs an experiment itself only when that
// test did not.
func TestGoldenArmsDiverge(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			arms, ok := goldenArms.Load(id)
			if !ok {
				checkGolden(t, id)
				arms, _ = goldenArms.Load(id)
			}
			type key struct {
				comparison int64
				run        uint64
			}
			tied := map[key][]string{} // arm names
			for _, r := range arms.([]*armRecord) {
				k := key{r.comparison, r.run.Sum64()}
				tied[k] = append(tied[k], r.name)
			}
			for k, names := range tied {
				if _, ok := expectedTies[fmt.Sprintf("%s %016x", id, k.run)]; len(names) > 1 && !ok {
					sort.Strings(names)
					t.Errorf("%s: arms %s ran bit-identically (run digest %016x)", id, strings.Join(names, ", "), k.run)
				}
			}
		})
	}
}
