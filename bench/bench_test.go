package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The estimator: a metric is the sum over steps of the fastest time each
// step took across repetitions, wall and CPU minimised on their own, with
// set-up steps kept apart from measured ones.
func TestBestOfRPerStep(t *testing.T) {
	r := newRecorder()
	add := func(name string, setup bool, digest uint64, samples ...sample) {
		st := &stepStat{name: name, setup: setup, samples: samples, traced: make([]bool, len(samples)), digest: digest, allocMB: 1}
		r.steps = append(r.steps, st)
		r.byName[name] = st
	}
	add("build", true, 0, sample{0.5, 0.5}, sample{0.3, 0.4})
	// The burst in rep 2 of "a" and rep 1 of "b" leaks into neither.
	add("a", false, 7, sample{1.0, 0.9}, sample{5.0, 0.8}, sample{1.1, 1.2})
	add("b", false, 9, sample{9.0, 2.0}, sample{2.0, 2.5}, sample{2.2, 2.1})

	got := r.reduce(nil)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("wall", got.wall, 1.0+2.0)
	near("cpu", got.cpu, 0.8+2.0)
	near("setup", got.setup, 0.3)
	near("median", got.median, 1.1+2.2)
	near("alloc", got.allocMB, 2)
	near("measured", r.measured(), 1.0+5.0+1.1+9.0+2.0+2.2)
	near("bestWall(a)", r.bestWall("a"), 1.0)

	want := newDigest()
	want.u64(7)
	want.u64(9)
	if got.digest != want.sum() {
		t.Errorf("digest %016x, want %016x", got.digest, want.sum())
	}

	// Restricted to traced samples, only those count.
	r.byName["a"].traced = []bool{false, true, false}
	r.byName["b"].traced = []bool{false, true, false}
	on := r.reduce(func(traced bool) bool { return traced })
	near("traced wall", on.wall, 5.0+2.0)
}

// A step that errors, panics or stops reproducing its digest is counted
// and named, and the run goes on.
func TestOpsAccountingNeverCrashes(t *testing.T) {
	r := newRecorder()
	r.beginRep(0, false)
	r.step("ok", func() (uint64, error) { return 1, nil })
	r.step("errors", func() (uint64, error) { return 0, errors.New("boom") })
	r.step("panics", func() (uint64, error) { panic("boom") })
	r.endRep()
	r.beginRep(1, false)
	r.step("ok", func() (uint64, error) { return 2, nil }) // digest drifted
	r.endRep()
	if r.attempted != 5 || r.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", r.attempted, r.failed)
	}
	if n := len(r.byName["panics"].samples); n != 0 {
		t.Fatalf("a failed step left %d samples in the table", n)
	}
}

type brokenWorkload struct{ finished bool }

func (w *brokenWorkload) rep(r *recorder) any {
	r.step("fine", func() (uint64, error) { return 0, nil })
	panic("outside any step")
}
func (w *brokenWorkload) finish(*recorder)          { w.finished = true }
func (w *brokenWorkload) layers(*recorder, metrics) {}

func TestBrokenWorkloadStillFinishes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	w := &brokenWorkload{}
	_, r, _ := measure(workloadDef{name: "broken", procs: 1, make: func(config) workload { return w }}, config{}, 0, false)
	if r.failed != 1 || !w.finished {
		t.Fatalf("failed %d finished %v, want 1 and true", r.failed, w.finished)
	}
}

// BENCHMARK.json and the harness name the same workloads and metrics, with
// the same units, directions and bounds, in the same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var file struct {
		Paths     []string
		Workloads []row
		EndToEnd  []row `json:"end_to_end"`
		PerLayer  []row `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(file.Workloads), len(workloadDefs))
	}
	for i, d := range workloadDefs {
		if w := file.Workloads[i]; w.Name != d.name || w.Why != d.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, w.Name, w.Why, d.name, d.why)
		}
	}
	same := func(kind string, rows []row, defs []metricDef) {
		if len(rows) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(rows), kind, len(defs))
		}
		for i, d := range defs {
			if got := (metricDef{name: rows[i].Name, unit: rows[i].Unit, better: rows[i].Better, bound: rows[i].Bound, owner: d.owner}); got != d {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, harness %+v", kind, i, got, d)
			}
		}
	}
	same("end-to-end", file.EndToEnd, endToEnd)
	same("per-layer", file.PerLayer, perLayer)
}

// Every workload and every check end to end at the smoke size, untraced at
// two seeds and traced at one, emitting exactly the listed metric names.
func TestSmokeAllWorkloads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	out := t.TempDir()
	for _, def := range workloadDefs {
		if runtime.NumCPU() < def.procs {
			t.Logf("%s needs %d CPUs, skipped", def.name, def.procs)
			continue
		}
		for _, run := range []struct {
			seed  int64
			trace bool
			defs  []metricDef
		}{{1, false, endToEnd}, {2, false, endToEnd}, {1, true, perLayer}} {
			res := runWorkload(def, config{seed: run.seed, size: smokeSize}, 0, run.trace, out)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s seed %d trace %v: %d of %d ops failed", def.name, run.seed, run.trace, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(run.defs) {
				t.Errorf("%s: %d metrics, want %d", def.name, len(res.Metrics), len(run.defs))
			}
			for _, d := range run.defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s: metric %s missing or in unit %q", def.name, d.name, v.Unit)
				}
				if !run.trace && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", def.name, d.name, v.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+def.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", def.name, err)
		}
	}
}
