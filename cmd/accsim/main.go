// Command accsim regenerates the paper's tables and figures from the
// simulator.
//
// Usage:
//
//	accsim -list                   # show available experiments
//	accsim -exp fig7               # run one experiment
//	accsim -exp all                # run everything
//	accsim -exp fig12 -scale 4     # paper-scale fabric/durations
//	accsim -exp fig9 -csv          # machine-readable output
//	accsim -exp fig6 -model m.accmodel
//	                               # deploy a model acctrain wrote instead of
//	                               # the compiled-in default
//
// The workload engine (mix-spec, mix-replay, mix-collective) drives
// spec-defined multi-client traffic and can record/replay flow traces:
//
//	accsim -exp mix-spec -workload-spec spec.json   # custom client classes
//	accsim -exp mix-spec -record-trace mix.bin      # record as-executed trace
//	accsim -exp mix-spec -replay-trace mix.bin -shards 4
//	                               # bit-identical replay on the sharded engine
//	accsim -exp mix-spec -shards 4 -fidelity hybrid
//	                               # flow-level fast-forward with packet-level
//	                               # hotspot demotion (read only by mix-*)
//	accsim -exp mix-replay -fidelity hybrid         # self-checking replay
//
// The robustness suite (robust-linkfail, robust-flap, robust-telemetry)
// reads the -fault-* flags to shape its fault plan:
//
//	accsim -exp robust-linkfail -seed 1
//	accsim -exp robust-flap -fault-links 3 -fault-mtbf 2ms -fault-mttr 500us
//	accsim -exp robust-telemetry -fault-stale 8 -fault-drop 0.5
//
// Observability (internal/obs) is off by default and enabled by flag:
//
//	accsim -exp fig8 -obs-dir out          # write <exp>.manifest.json,
//	                                       # <exp>.trace.jsonl, <exp>.metrics.prom
//	accsim -exp fig12 -obs-addr :9090      # live /metrics, /manifest,
//	                                       # /trace?last=N, /debug/pprof while running
//
// The snapshot world (internal/snap, internal/sweep) runs without -exp:
//
//	accsim -snapshot w.accsnap -snap-at 300us -shards 4 -fidelity hybrid
//	                               # run the canonical snapshot scenario, freeze
//	                               # it mid-run to a file, continue to the
//	                               # horizon, print the outcome digest
//	accsim -resume w.accsnap       # rebuild from the file alone and run to the
//	                               # horizon — the digest matches the line above
//	accsim -sweep 8 -sweep-out out -shards 4 -fidelity hybrid
//	                               # warm-fork and cold sweeps of an 8-branch
//	                               # WRED matrix; writes byte-identical
//	                               # sweep_warm.csv / sweep_cold.csv plus
//	                               # per-branch obs manifests into out/
package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/exp"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap"
	"github.com/accnet/acc/internal/sweep"
	"github.com/accnet/acc/internal/workload"
)

// snapScenario is the canonical snapshot-world scenario the -snapshot,
// -resume, and -sweep modes run: a congested mixed TCP/DCQCN fabric with
// a 600 us horizon, parameterized by the shared -seed/-shards/-fidelity
// flags. -resume does not consult it — the scenario rides inside the
// snapshot file.
func snapScenario(seed int64, shards int, fidelity string) snap.Scenario {
	if shards <= 0 {
		shards = 1
	}
	return snap.Scenario{
		NLeaf: 4, HostsPerLeaf: 3, NSpine: 2, Shards: shards,
		Seed:  seed,
		Flows: 96, MaxBytes: 96 * simtime.KB, Spread: 500 * simtime.Microsecond, MixTCP: true,
		Horizon:  simtime.Time(600 * simtime.Microsecond),
		Fidelity: fidelity,
	}
}

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		expID    = flag.String("exp", "", "experiment id (or 'all')")
		seed     = flag.Int64("seed", 1, "simulation seed")
		scale    = flag.Float64("scale", 1, "duration/fabric scale factor, > 0 (>=4 restores paper-scale fabrics)")
		episodes = flag.Int("episodes", 0, "offline pre-training episodes for ACC policies (0 = default)")
		model    = flag.String("model", "", "deploy this offline model file (written by acctrain) on every ACC policy instead of the compiled-in default")
		shards   = flag.Int("shards", 0, "split the fabric across N event queues of the parallel engine: mix-spec, mix-replay, -snapshot and -sweep (results are bit-identical to one; see DESIGN.md 'Parallel simulation')")
		fidelity = flag.String("fidelity", "", "simulation fidelity: ''/'packet' = byte-identical packet engine, 'hybrid' = flow-level fast-forward with packet-level hotspot demotion (see DESIGN.md 'Hybrid fidelity')")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")

		faultMTBF    = flag.Duration("fault-mtbf", 0, "robust-flap: mean up time between failures (0 = experiment default)")
		faultMTTR    = flag.Duration("fault-mttr", 0, "robust-flap: mean down time until repair (0 = experiment default)")
		faultLinks   = flag.Int("fault-links", 0, "robust-flap: number of leaf-spine links to flap (0 = experiment default)")
		faultStale   = flag.Int("fault-stale", 0, "robust-telemetry: observation staleness in monitoring slots")
		faultDrop    = flag.Float64("fault-drop", 0, "robust-telemetry: per-window telemetry loss probability [0,1]")
		faultDegrade = flag.Float64("fault-degrade", 0, "robust-linkfail: brownout a second uplink to this fraction [0,1) of nominal bandwidth (0 = off)")

		obsAddr = flag.String("obs-addr", "", "serve live introspection (/metrics, /manifest, /trace, /debug/pprof) on this address")
		obsDir  = flag.String("obs-dir", "", "write per-experiment manifest/trace/metrics files into this directory")
		obsRing = flag.Int("obs-ring", 0, "trace ring capacity in records (0 = default 65536)")

		workloadSpec = flag.String("workload-spec", "", "mix-*: JSON workload spec file (multi-client classes; see DESIGN.md 'Workload engine')")
		recordTrace  = flag.String("record-trace", "", "mix-*: record the as-executed flow trace to this file (.bin = binary, else JSONL)")
		replayTrace  = flag.String("replay-trace", "", "mix-*: replay a recorded flow trace instead of generating traffic")

		snapFile   = flag.String("snapshot", "", "run the canonical snapshot scenario, freeze it to this file at -snap-at, continue to the horizon, print the digest")
		snapAt     = flag.Duration("snap-at", 300*time.Microsecond, "virtual instant the -snapshot file captures (must be inside the 600us horizon)")
		resumeFile = flag.String("resume", "", "rebuild a world from this snapshot file and run it to its horizon (no -exp needed)")
		sweepN     = flag.Int("sweep", 0, "run a warm-fork and a cold sweep of an N-branch WRED matrix; writes sweep_warm.csv/sweep_cold.csv + per-branch obs manifests to -sweep-out")
		sweepOut   = flag.String("sweep-out", "sweep-out", "directory for -sweep artifacts (created if missing)")
	)
	flag.Parse()

	// A number no run can honour is a user error, refused before any mode
	// runs rather than silently read as a default.
	for _, c := range []struct {
		flag string
		v    any
		ok   bool
		want string
	}{
		{"scale", *scale, *scale > 0 && !math.IsInf(*scale, 1), "finite and > 0"},
		{"episodes", *episodes, *episodes >= 0, ">= 0"},
		{"shards", *shards, *shards >= 0, ">= 0"},
		{"obs-ring", *obsRing, *obsRing >= 0, ">= 0"},
		{"fault-links", *faultLinks, *faultLinks >= 0, ">= 0"},
		{"fault-stale", *faultStale, *faultStale >= 0, ">= 0"},
		{"fault-mtbf", *faultMTBF, *faultMTBF >= 0, ">= 0"},
		{"fault-mttr", *faultMTTR, *faultMTTR >= 0, ">= 0"},
		{"fault-drop", *faultDrop, *faultDrop >= 0 && *faultDrop <= 1, "in [0, 1]"},
		{"fault-degrade", *faultDegrade, *faultDegrade >= 0 && *faultDegrade < 1, "in [0, 1)"},
	} {
		if !c.ok {
			fmt.Fprintf(os.Stderr, "accsim: -%s %v: want %s\n", c.flag, c.v, c.want)
			os.Exit(2)
		}
	}

	switch *fidelity {
	case "", "packet", "hybrid":
	default:
		fmt.Fprintf(os.Stderr, "accsim: unknown -fidelity %q (want 'packet' or 'hybrid')\n", *fidelity)
		os.Exit(2)
	}

	// Snapshot-world modes run without -exp. Preflight their file arguments
	// first: a bad path or corrupt image is a user error and deserves a clean
	// one-line diagnostic before any simulation work, like -workload-spec.
	if *resumeFile != "" {
		data, sc, err := snap.ReadFile(*resumeFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "accsim: -resume:", err)
			os.Exit(2)
		}
		w, err := snap.Restore(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "accsim: -resume:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "accsim: resumed %s at %v (fidelity %q, %d shards)\n",
			*resumeFile, w.Now(), sc.Fidelity, sc.Shards)
		w.Run(sc.Horizon)
		s := w.Summarize()
		fmt.Printf("digest %016x flows %d/%d marks %d drops %d events %d\n",
			s.Digest, s.FlowsCompleted, s.FlowsOffered, s.Marks, s.Drops, s.Processed)
		return
	}
	if *snapFile != "" {
		if dir := filepath.Dir(*snapFile); dir != "." {
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				fmt.Fprintf(os.Stderr, "accsim: -snapshot: directory %s does not exist\n", dir)
				os.Exit(2)
			}
		}
		sc := snapScenario(*seed, *shards, *fidelity)
		at := simtime.Time(simtime.Duration((*snapAt).Nanoseconds()))
		if at <= 0 || at >= sc.Horizon {
			fmt.Fprintf(os.Stderr, "accsim: -snap-at: %v outside (0, %v)\n", *snapAt, sc.Horizon)
			os.Exit(2)
		}
		w, err := snap.Build(sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "accsim: -snapshot:", err)
			os.Exit(1)
		}
		w.Run(at)
		img := w.Snapshot()
		if err := snap.WriteFile(*snapFile, img); err != nil {
			fmt.Fprintln(os.Stderr, "accsim: -snapshot:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "accsim: snapshot %s at %v (%d bytes); continuing to %v\n",
			*snapFile, at, len(img), sc.Horizon)
		w.Run(sc.Horizon)
		s := w.Summarize()
		fmt.Printf("digest %016x flows %d/%d marks %d drops %d events %d\n",
			s.Digest, s.FlowsCompleted, s.FlowsOffered, s.Marks, s.Drops, s.Processed)
		return
	}
	if *sweepN > 0 {
		if err := os.MkdirAll(*sweepOut, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "accsim: -sweep-out:", err)
			os.Exit(2)
		}
		m := sweep.Matrix{
			Base:      snapScenario(*seed, *shards, *fidelity),
			WarmPoint: simtime.Time(300 * simtime.Microsecond),
			Branches:  sweep.WREDLadder(*sweepN),
		}
		opts := sweep.Options{Parallel: runtime.GOMAXPROCS(0), ObsDir: *sweepOut}
		warm, err := sweep.RunWarm(m, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "accsim: -sweep:", err)
			os.Exit(1)
		}
		cold, err := sweep.RunCold(m, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "accsim: -sweep:", err)
			os.Exit(1)
		}
		for name, r := range map[string]*sweep.Result{"sweep_warm.csv": warm, "sweep_cold.csv": cold} {
			if err := os.WriteFile(filepath.Join(*sweepOut, name), []byte(r.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "accsim: -sweep:", err)
				os.Exit(1)
			}
		}
		if ok, who := sweep.Equal(warm, cold); !ok {
			fmt.Fprintf(os.Stderr, "accsim: -sweep: warm fork diverged from cold run at branch %s\n", who)
			os.Exit(1)
		}
		fmt.Printf("# sweep (%d branches, %d shards, fidelity %q): warm fork == cold run\n%s",
			*sweepN, m.Base.Shards, m.Base.Fidelity, warm.CSV())
		return
	}

	if *list || *expID == "" {
		fmt.Println("available experiments:")
		for _, e := range exp.List() {
			fmt.Printf("  %-18s %s\n", e[0], e[1])
		}
		if *expID == "" && !*list {
			os.Exit(2)
		}
		return
	}

	ids := []string{*expID}
	if *expID == "all" {
		ids = ids[:0]
		for _, e := range exp.List() {
			ids = append(ids, e[0])
		}
	}
	opts := exp.Options{
		Seed: *seed, Scale: *scale, OfflineEpisodes: *episodes, ModelFile: *model, Shards: *shards,
		Fidelity:     *fidelity,
		WorkloadSpec: *workloadSpec, RecordTrace: *recordTrace, ReplayTrace: *replayTrace,
		Faults: exp.FaultOptions{
			MTBF:     simtime.Duration((*faultMTBF).Nanoseconds()),
			MTTR:     simtime.Duration((*faultMTTR).Nanoseconds()),
			Links:    *faultLinks,
			Stale:    *faultStale,
			DropProb: *faultDrop,
			Degrade:  *faultDegrade,
		},
	}
	// An unknown id, or an option a selected experiment would ignore, is a
	// user error: say so before anything runs rather than run without it.
	for _, id := range ids {
		if err := exp.Check(id, opts); err != nil {
			fmt.Fprintln(os.Stderr, "accsim:", err)
			os.Exit(2)
		}
	}
	// Preflight the workload files: a malformed spec or trace is a user
	// error and deserves a clean one-line diagnostic, not a panic from deep
	// inside the experiment.
	if *workloadSpec != "" {
		if _, err := workload.ReadSpecFile(*workloadSpec); err != nil {
			fmt.Fprintln(os.Stderr, "accsim: -workload-spec:", err)
			os.Exit(2)
		}
	}
	if *replayTrace != "" {
		if _, err := workload.ReadTraceFile(*replayTrace); err != nil {
			fmt.Fprintln(os.Stderr, "accsim: -replay-trace:", err)
			os.Exit(2)
		}
	}
	// LoadModel holds the file to the deployed agents' shape, so a wrong
	// model is one error here, before any simulation runs.
	if *model != "" {
		if *episodes != 0 {
			fmt.Fprintln(os.Stderr, "accsim: -model and -episodes both choose the deployed model; give one")
			os.Exit(2)
		}
		m, recipe, err := acc.LoadModel(*model, acc.DefaultConfig().AgentConfig())
		if err != nil {
			fmt.Fprintln(os.Stderr, "accsim: -model:", err)
			os.Exit(2)
		}
		opts.Model = m
		fmt.Fprintf(os.Stderr, "accsim: model %s: %d episodes x %v, seed %d, weights %016x\n",
			*model, recipe.Episodes, recipe.EpisodeTime, recipe.Seed, m.Digest())
	}
	obsOn := *obsAddr != "" || *obsDir != ""
	var server *obs.Server
	if *obsAddr != "" {
		server = obs.NewServer(nil)
		go func() {
			if err := http.ListenAndServe(*obsAddr, server.Handler()); err != nil {
				fmt.Fprintln(os.Stderr, "accsim: obs server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "accsim: introspection on http://%s (/metrics /manifest /trace /debug/pprof)\n", *obsAddr)
	}

	for _, id := range ids {
		t0 := time.Now()
		runOpts := opts
		var run *obs.Run
		if obsOn {
			run = obs.NewRun(*obsRing)
			runOpts.Obs = run
			if server != nil {
				server.SetRun(run)
			}
		}
		tables, err := exp.Run(id, runOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "accsim:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			if *csv {
				fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Println(t)
			}
		}
		if *obsDir != "" {
			// WriteFiles re-parses everything it writes, so a zero exit
			// means the artifacts are loadable — CI leans on that.
			manifest, trace, metrics, err := run.WriteFiles(*obsDir, id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "accsim: obs artifacts:", err)
				os.Exit(1)
			}
			m := run.Manifest()
			fmt.Fprintf(os.Stderr, "accsim: obs artifacts for %s: %s %s %s (%d trace records, %d events)\n",
				id, manifest, trace, metrics, m.TraceEmitted, m.EventsProcessed)
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
}
