package exp

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
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
	o := DefaultOptions()
	o.Scale = 0.25
	o.OfflineEpisodes = 4
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			t.Parallel() // each Run builds its own worlds; PretrainedModel is mutex-guarded
			tables, err := Run(id, o)
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
				t.Errorf("output diverged from golden table:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
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
