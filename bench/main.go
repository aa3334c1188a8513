// Command bench is the repository's one benchmark (see README.md and
// ../BENCHMARK.json). It measures every layer from outside, by timing
// calls into public functions; it changes nothing it measures.
//
//	sh bench/run.sh                         every workload, each in its own process
//	sh bench/run.sh -workload sweep-fork    one workload
//	sh bench/run.sh -layers                 also the traced runs and per-layer metrics
//	sh bench/run.sh -aa                     the set twice, compared against the bounds
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
)

// metrics maps a metric name to its value in the unit its metricDef gives.
type metrics map[string]float64

// metricDef is one row of BENCHMARK.json; TestBenchmarkJSONMatches keeps
// the two from drifting.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end: allowed worsening as a share of the parent's median
	owner              string  // per-layer: the workload whose traced run measures it ("" = each its own)
}

var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.08},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.15},
}

const (
	figs, packet, sharded, fork, mix = "paper-figs", "fabric-packet", "fabric-sharded", "sweep-fork", "hybrid-mix"
)

var perLayer = []metricDef{
	{name: "exp.pretrain_s", unit: "s", better: "lower", owner: figs},
	{name: "exp.fig6_s", unit: "s", better: "lower", owner: figs},
	{name: "exp.fig8_s", unit: "s", better: "lower", owner: figs},
	{name: "exp.fig10_s", unit: "s", better: "lower", owner: figs},
	{name: "exp.fig14_s", unit: "s", better: "lower", owner: figs},
	{name: "exp.fig16_s", unit: "s", better: "lower", owner: figs},
	{name: "acc.offline_episode_s", unit: "s", better: "lower", owner: figs},
	{name: "acc.tick_ns", unit: "ns", better: "lower", owner: figs},
	{name: "rl.forward_ns", unit: "ns", better: "lower", owner: figs},
	{name: "rl.train_step_ns", unit: "ns", better: "lower", owner: figs},
	{name: "rl.params", unit: "count", better: "lower", owner: figs},
	{name: "eventq.call_ns_1k", unit: "ns", better: "lower", owner: figs},
	{name: "eventq.call_ns_1m", unit: "ns", better: "lower", owner: packet},
	{name: "eventq.closure_ns_1k", unit: "ns", better: "lower", owner: figs},
	{name: "eventq.reset_ns", unit: "ns", better: "lower", owner: packet},
	{name: "netsim.hop_ns", unit: "ns", better: "lower", owner: packet},
	{name: "red.admit_ns", unit: "ns", better: "lower", owner: packet},
	{name: "dcqcn.pkt_ns", unit: "ns", better: "lower", owner: packet},
	{name: "tcp.pkt_ns", unit: "ns", better: "lower", owner: figs},
	{name: "netsim.ns_per_event_16", unit: "ns", better: "lower", owner: packet},
	{name: "netsim.ns_per_event_2304", unit: "ns", better: "lower", owner: packet},
	{name: "netsim.scale_cost_ratio", unit: "ratio", better: "lower", owner: packet},
	{name: "netsim.events_fabric", unit: "count", better: "lower", owner: packet},
	{name: "netsim.allocs_per_event_2304", unit: "1/event", better: "lower", owner: packet},
	{name: "topo.build_s_2304", unit: "s", better: "lower", owner: packet},
	{name: "psim.build_s_2304", unit: "s", better: "lower", owner: sharded},
	{name: "fabric.warmup_s", unit: "s", better: "lower", owner: packet},
	{name: "psim.window_ns_k1", unit: "ns", better: "lower", owner: fork},
	{name: "psim.window_ns_k2", unit: "ns", better: "lower", owner: sharded},
	{name: "psim.windows", unit: "count", better: "lower", owner: sharded},
	{name: "psim.speedup", unit: "ratio", better: "higher", owner: sharded},
	{name: "psim.cpu_ratio", unit: "ratio", better: "lower", owner: sharded},
	{name: "psim.shard_imbalance", unit: "ratio", better: "lower", owner: sharded},
	{name: "psim.idle_cpu_share", unit: "ratio", better: "lower", owner: sharded},
	{name: "hybrid.tick_ns", unit: "ns", better: "lower", owner: mix},
	{name: "hybrid.start_flow_ns", unit: "ns", better: "lower", owner: mix},
	{name: "hybrid.analytic_share", unit: "ratio", better: "higher", owner: mix},
	{name: "hybrid.packet_flows", unit: "count", better: "lower", owner: mix},
	{name: "hybrid.demotions", unit: "count", better: "lower", owner: mix},
	{name: "hybrid.ticks", unit: "count", better: "lower", owner: mix},
	{name: "snap.encode_s", unit: "s", better: "lower", owner: fork},
	{name: "snap.image_mb", unit: "MB", better: "lower", owner: fork},
	{name: "snap.fork_s", unit: "s", better: "lower", owner: fork},
	{name: "snap.build_s", unit: "s", better: "lower", owner: fork},
	{name: "snap.overlay_s", unit: "s", better: "lower", owner: fork},
	{name: "sweep.tail_s", unit: "s", better: "lower", owner: fork},
	{name: "sweep.warm_gain", unit: "ratio", better: "higher", owner: fork},
	{name: "codec.write_mb_s", unit: "MB/s", better: "higher", owner: fork},
	{name: "codec.read_mb_s", unit: "MB/s", better: "higher", owner: fork},
	{name: "workload.generate_flows_per_s", unit: "1/s", better: "higher", owner: figs},
	{name: "workload.trace_decode_mb_s", unit: "MB/s", better: "higher", owner: figs},
	{name: "obs.emit_ns", unit: "ns", better: "lower", owner: figs},
	{name: "obs.traced_overhead_pct", unit: "%", better: "lower", owner: figs},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "bench.noise_pct", unit: "%", better: "lower"},
	{name: "bench.unattributed_pct", unit: "%", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}

// noisyHostPct is the bench.noise_pct above which a run warns that the
// host, not the code, is what it measured.
const noisyHostPct = 15

const (
	minReps = 3  // every step is timed at least this often
	maxReps = 64 // and a run with a broken step still ends

	outDir = "bench/out" // span files, relative to the root run.sh starts the binary in
)

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "run one workload in this process (default: all, each in a child process)")
	seed := flag.Int64("seed", 1, "workload seed, threaded into every simulation the workload builds")
	secs := flag.Float64("seconds", 10, "measured time per workload: repetitions continue until the measured steps have taken this long")
	trace := flag.Int("trace", 0, "1: traced run — spans on alternate repetitions, per-layer metrics, bench/out/trace-<workload>.json")
	layers := flag.Bool("layers", false, "with all workloads: also make each one's traced run")
	aa := flag.Bool("aa", false, "run the whole set twice and fail if a pair differs by more than its bound")
	flag.Parse()

	var failed int
	switch {
	case *name != "":
		def, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		res := runWorkload(def, config{seed: *seed, size: fullSize}, *secs, *trace == 1 || *layers, outDir)
		failed = res.Failed
	case *aa:
		failed = runAA(*seed, *secs)
	default:
		failed = runAll(*seed, *secs, *layers || *trace == 1).Failed
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// measure runs the workload's repetitions and cross-checks.
func measure(def workloadDef, cfg config, seconds float64, trace bool) (w workload, r *recorder, liveHeapMB float64) {
	runtime.GOMAXPROCS(def.procs)
	// The recorder collects between steps instead (recorder.run).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w, r = def.make(cfg), newRecorder()
	for rep := 0; rep < maxReps && (rep < minReps || r.measured() < seconds); rep++ {
		// A traced run alternates, so both halves see the same host.
		r.beginRep(rep, trace && rep%2 == 0)
		var hold any
		if err := guard(func() { hold = w.rep(r) }); err != nil {
			r.fail(fmt.Sprintf("rep %d", rep), err)
		}
		r.endRep()
		if rep == 0 {
			var ms runtime.MemStats
			collect(&ms)
			liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
		}
		runtime.KeepAlive(hold)
		if r.failed > 0 {
			break // the step table is no longer comparable; stop paying for it
		}
	}
	if err := guard(func() { w.finish(r) }); err != nil {
		r.fail("cross-checks", err)
	}
	return w, r, liveHeapMB
}

// runWorkload measures one workload in this process and prints its
// metrics by name and unit, then the result line.
func runWorkload(def workloadDef, cfg config, seconds float64, trace bool, outDir string) result {
	w, r, liveHeapMB := measure(def, cfg, seconds, trace)
	t := r.reduce(nil)

	m, defs := metrics{}, endToEnd
	if !trace {
		m["wall_s"], m["cpu_s"], m["setup_s"] = t.wall, t.cpu, t.setup
		m["live_heap_mb"], m["alloc_mb"] = liveHeapMB, t.allocMB
	} else {
		defs = perLayer
		if err := guard(func() { w.layers(r, m) }); err != nil {
			r.fail("per-layer metrics", err)
		}
		harnessRows(r, t, m)
		if err := writeSpans(filepath.Join(outDir, "trace-"+def.name+".json"), r.spans); err != nil {
			r.fail("span file", err)
		}
	}

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		if d.owner != "" && d.owner != def.name {
			m[d.name] = 0 // another workload's traced run measures it
		}
		res.Metrics[d.name] = value{m[d.name], d.unit}
		fmt.Printf("%-15s %-30s %14.6g %s\n", def.name, d.name, m[d.name], d.unit)
	}
	noise := t.noisePct()
	fmt.Printf("%-15s ops %d  ops_failed %d  sim_digest %016x  reps %d  noise %.1f%%\n",
		def.name, r.attempted, r.failed, t.digest, r.rep+1, noise)
	if noise > noisyHostPct {
		fmt.Printf("%-15s WARNING noisy host: median step times are %.0f%% above the fastest\n", def.name, noise)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return res
}

// harnessRows adds the diagnostics every workload reports about its own
// traced run.
func harnessRows(r *recorder, t totals, m metrics) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	m["bench.noise_pct"] = t.noisePct()
	var self, total int64
	for _, s := range r.spans {
		if s.Parent == 0 {
			self += s.SelfNs
			total += s.EndNs - s.StartNs
		}
	}
	if total > 0 {
		m["bench.unattributed_pct"] = float64(self) / float64(total) * 100
	}
	on := r.reduce(func(traced bool) bool { return traced })
	off := r.reduce(func(traced bool) bool { return !traced })
	if off.wall > 0 {
		m["bench.trace_overhead_pct"] = (on.wall/off.wall - 1) * 100
	}
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runAll runs every workload in a child process of its own, one after the
// other, so heaps and the pretrained-model cache never leak between them.
// A workload that fails or crashes is counted and the rest still run.
func runAll(seed int64, seconds float64, layers bool) result {
	all := result{Correct: true, Metrics: map[string]value{}}
	modes := []int{0}
	if layers {
		modes = []int{0, 1}
	}
	for _, def := range workloadDefs {
		for _, trace := range modes {
			res, err := runChild(def.name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "FAILED workload %s: %v\n", def.name, err)
				res.Attempted++
				res.Failed++
			}
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for k, v := range res.Metrics {
				all.Metrics[def.name+"/"+k] = v
			}
		}
	}
	all.Correct = all.Failed == 0
	fmt.Printf("all: ops %d  ops_failed %d\n", all.Attempted, all.Failed)
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	return all
}

// runChild runs one workload in a fresh process, passes its report
// through, and parses its result line.
func runChild(name string, seed int64, seconds float64, trace int) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	_, _ = io.Copy(io.Discard, pipe) // a line over the scanner's limit must not block the child
	waitErr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line (exit: %v, last output %q): %v", waitErr, last, err)
	}
	return res, nil // a non-zero exit with a result line is ops_failed > 0, already counted
}

// runAA runs the full set twice in fresh processes and compares every
// workload × end-to-end metric against its bound.
func runAA(seed int64, seconds float64) int {
	a := runAll(seed, seconds, false)
	b := runAll(seed, seconds, false)
	failed := a.Failed + b.Failed
	fmt.Printf("%-15s %-14s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, def := range workloadDefs {
		for _, d := range endToEnd {
			x, y := a.Metrics[def.name+"/"+d.name].Value, b.Metrics[def.name+"/"+d.name].Value
			diff := 0.0
			if x > 0 {
				diff = (y - x) / x
			}
			verdict := ""
			if diff > d.bound || diff < -d.bound {
				verdict = "  DIFFERS"
				failed++
			}
			fmt.Printf("%-15s %-14s %14.6g %14.6g %+7.2f%% %6.0f%%%s\n", def.name, d.name, x, y, diff*100, d.bound*100, verdict)
		}
	}
	return failed
}
