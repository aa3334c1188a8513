package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// sample is one timing of one step: host wall seconds and user+sys CPU
// seconds of the whole process (so a sharded step counts both threads).
type sample struct{ wall, cpu float64 }

// stepStat collects every sample of one named step across repetitions.
// Work per step is bit-identical across repetitions (asserted through
// digest), so the fastest sample is the least contaminated one.
type stepStat struct {
	name    string
	setup   bool // counted in setup_s, not in wall_s / cpu_s
	samples []sample
	traced  []bool  // samples[i] came from a rep that recorded spans
	digest  uint64  // simulated outcome of the first execution
	allocMB float64 // smallest TotalAlloc delta of an execution: pools warm
	mallocs uint64  // Mallocs delta of that execution
}

// best returns the fastest wall and CPU time over the samples selected by
// keep (nil keeps all), each minimised on its own.
func (s *stepStat) best(keep func(traced bool) bool) (sample, bool) {
	var out sample
	found := false
	for i, x := range s.samples {
		if keep != nil && !keep(s.traced[i]) {
			continue
		}
		if !found || x.wall < out.wall {
			out.wall = x.wall
		}
		if !found || x.cpu < out.cpu {
			out.cpu = x.cpu
		}
		found = true
	}
	return out, found
}

// median returns the median wall time over all samples.
func (s *stepStat) median() float64 {
	w := make([]float64, len(s.samples))
	for i, x := range s.samples {
		w[i] = x.wall
	}
	sort.Float64s(w)
	if n := len(w); n%2 == 1 {
		return w[n/2]
	} else if n > 0 {
		return (w[n/2-1] + w[n/2]) / 2
	}
	return 0
}

// span is one harness-side trace record around a call into a layer.
// Spans of one repetition share a root (Parent 0); Counts are deltas of
// the workload's public counters read at the same boundaries.
type span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent"`
	Name    string            `json:"name"`
	StartNs int64             `json:"start_ns"`
	EndNs   int64             `json:"end_ns"`
	SelfNs  int64             `json:"self_ns"`
	Counts  map[string]uint64 `json:"counts,omitempty"`
}

// recorder times the steps of a workload, keeps the per-step tables the
// estimator reduces, counts operations, and — on traced repetitions —
// keeps spans in memory until the run ends.
type recorder struct {
	steps  []*stepStat
	byName map[string]*stepStat

	rep     int  // current repetition, from 0
	tracing bool // this repetition records spans
	spans   []span
	root    int       // index into spans of the current rep's root, -1 if none
	epoch   time.Time // span clock origin

	// counters, when set by the workload, reads its public counters
	// (events, packets, marks, ...) for span count deltas.
	counters func() map[string]uint64

	attempted, failed int

	live uint64 // heap in use after the last collection between steps
}

func newRecorder() *recorder {
	return &recorder{byName: map[string]*stepStat{}, root: -1, epoch: time.Now()}
}

// fail counts one failed operation and names it on stderr.
func (r *recorder) fail(what string, err any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", what, err)
}

// check counts one correctness check.
func (r *recorder) check(name string, ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail("check "+name, fmt.Sprintf(format, args...))
	}
}

// collect runs the collector twice, so that what pools kept alive through
// one cycle is gone too, and reads the heap statistics that result.
func collect(ms *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(ms)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// beginRep opens a repetition; traced repetitions get a root span.
func (r *recorder) beginRep(rep int, tracing bool) {
	r.rep, r.tracing, r.root = rep, tracing, -1
	if tracing {
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: fmt.Sprintf("rep-%d", rep),
			StartNs: time.Since(r.epoch).Nanoseconds()})
		r.root = len(r.spans) - 1
	}
}

// endRep closes the root span and derives its self time: the part of the
// repetition no step span covers.
func (r *recorder) endRep() {
	if r.root < 0 {
		return
	}
	root := &r.spans[r.root]
	root.EndNs = time.Since(r.epoch).Nanoseconds()
	root.SelfNs = root.EndNs - root.StartNs
	for _, s := range r.spans[r.root+1:] {
		root.SelfNs -= s.EndNs - s.StartNs
	}
}

// setup runs one set-up step (build, warm-up, pretraining).
func (r *recorder) setup(name string, fn func() error) {
	r.run(name, true, func() (uint64, error) { return 0, fn() })
}

// step runs one measured step. fn returns a digest of the simulated
// outcome; every later execution of the step must reproduce it.
func (r *recorder) step(name string, fn func() (uint64, error)) {
	r.run(name, false, fn)
}

func (r *recorder) run(name string, setup bool, fn func() (uint64, error)) {
	st := r.byName[name]
	first := st == nil
	if first {
		st = &stepStat{name: name, setup: setup}
		r.byName[name] = st
		r.steps = append(r.steps, st)
	}

	var before map[string]uint64
	if r.tracing && r.counters != nil {
		before = r.counters()
	}
	// The recorder stands in for the collector's own pacing while a
	// workload is measured (measure turns that off): once the heap has
	// doubled since the last collection it collects here, between steps, so
	// a collection never lands inside one repetition of a step and not
	// another. wall_s and cpu_s are therefore the program's own time; what
	// the collector costs a user follows alloc_mb and live_heap_mb.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if m0.HeapAlloc > 2*r.live+(4<<20) {
		collect(&m0)
		r.live = m0.HeapAlloc
	}

	r.attempted++
	start, cpu0 := time.Now(), cpuSeconds()
	digest, err := protect(fn)
	wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0

	runtime.ReadMemStats(&m1)
	allocMB, mallocs := float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), m1.Mallocs-m0.Mallocs
	if r.tracing {
		sp := span{ID: len(r.spans) + 1, Name: name, StartNs: start.Sub(r.epoch).Nanoseconds()}
		sp.EndNs = sp.StartNs + int64(wall*1e9)
		sp.SelfNs = sp.EndNs - sp.StartNs
		if r.root >= 0 {
			sp.Parent = r.spans[r.root].ID
		}
		if before != nil {
			sp.Counts = r.counters()
			for k, v := range before {
				sp.Counts[k] -= v
			}
		}
		r.spans = append(r.spans, sp)
	}

	if err != nil {
		r.fail(fmt.Sprintf("step %s (rep %d)", name, r.rep), err)
		return
	}
	st.samples = append(st.samples, sample{wall, cpu})
	st.traced = append(st.traced, r.tracing)
	if first || allocMB < st.allocMB {
		st.allocMB, st.mallocs = allocMB, mallocs
	}
	if first {
		st.digest = digest
	} else if !setup {
		r.check(name+" repeats", digest == st.digest, "rep %d digest %016x, first %016x", r.rep, digest, st.digest)
	}
}

// protect turns a panic inside a step into an error, so one broken step
// is counted and named instead of ending the run.
func protect(fn func() (uint64, error)) (digest uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// guard is protect for code outside any step.
func guard(fn func()) error {
	_, err := protect(func() (uint64, error) { fn(); return 0, nil })
	return err
}

// totals is the reduced step table.
type totals struct {
	wall, cpu float64 // Σ measured steps of best-of-R
	setup     float64 // Σ set-up steps of best-of-R wall
	median    float64 // Σ measured steps of median wall
	allocMB   float64 // Σ measured steps of smallest TotalAlloc delta
	digest    uint64  // FNV-64a over measured steps' first-execution digests
}

// noisePct is how far the median repetition sits above the fastest one:
// (Σ median − Σ min) / Σ min.
func (t totals) noisePct() float64 {
	if t.wall == 0 {
		return 0
	}
	return (t.median/t.wall - 1) * 100
}

// reduce applies the estimator: a metric is the sum over steps of the
// fastest time that step took across repetitions.
func (r *recorder) reduce(keep func(traced bool) bool) totals {
	var t totals
	h := newDigest()
	for _, st := range r.steps {
		b, ok := st.best(keep)
		if !ok {
			continue
		}
		if st.setup {
			t.setup += b.wall
			continue
		}
		t.wall += b.wall
		t.cpu += b.cpu
		t.median += st.median()
		t.allocMB += st.allocMB
		h.u64(st.digest)
	}
	t.digest = h.sum()
	return t
}

// measured is the wall time spent in measured steps so far, over all
// repetitions: what -seconds budgets.
func (r *recorder) measured() float64 {
	var sum float64
	for _, st := range r.steps {
		if st.setup {
			continue
		}
		for _, x := range st.samples {
			sum += x.wall
		}
	}
	return sum
}

// bestWall returns the best-of-R wall seconds of one step, 0 if it never
// completed.
func (r *recorder) bestWall(name string) float64 {
	if st := r.byName[name]; st != nil {
		b, _ := st.best(nil)
		return b.wall
	}
	return 0
}

// sumBest sums best-of-R wall seconds over the steps whose name has the
// prefix.
func (r *recorder) sumBest(prefix string) float64 {
	var sum float64
	for _, st := range r.steps {
		if strings.HasPrefix(st.name, prefix) {
			sum += r.bestWall(st.name)
		}
	}
	return sum
}

// digest64 is FNV-64a over 64-bit words, the hash snap.Summary uses.
type digest64 struct{ h hash.Hash64 }

func newDigest() digest64 { return digest64{fnv.New64a()} }

func (d digest64) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digest64) bytes(b []byte) { d.h.Write(b) }

func (d digest64) sum() uint64 { return d.h.Sum64() }
