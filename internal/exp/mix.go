package exp

// mix-* experiments: the production-scale workload engine driving the
// parallel/hybrid simulation engines.
//
//	mix-spec       — expand a multi-client workload spec (or replay a trace)
//	                 and report per-SLO-class FCT tails + Jain fairness.
//	mix-replay     — run a trace, re-record it as executed, replay the
//	                 recording on a fresh engine, and assert bit-identity.
//	mix-collective — AI-fabric collectives (tree allreduce, MoE all-to-all,
//	                 pipeline waves) composed with background spec traffic
//	                 on a sequential fabric, live-recorded to a trace.
//
// All three honor -record-trace/-replay-trace; mix-spec and mix-replay run
// on the sharded engine (-shards) at either fidelity (-fidelity). Result
// tables carry FNV-64a digests of the full bit-identity surface (per-flow
// ends, per-switch marks/drops, loss aggregates, goodput series, event
// totals), so a CSV diff between a run and its replay IS the determinism
// check — CI's workload-smoke job does exactly that.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/hybrid"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/psim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/topo"
	"github.com/accnet/acc/internal/workload"
)

func init() {
	register("mix-spec", "multi-client workload spec: per-SLO-class FCT tails + Jain fairness (workload engine)", runMixSpec,
		hybridFidelity, shards, workloadSpec, recordTrace, replayTrace)
	register("mix-replay", "record→replay determinism: run, re-record, replay, assert bit-identity", runMixReplay,
		hybridFidelity, shards, workloadSpec, recordTrace, replayTrace)
	register("mix-collective", "AI-fabric collectives (tree allreduce, MoE all-to-all, pipeline) over background traffic", runMixCollective,
		recordTrace)
}

const mixSamplePeriod = 20 * simtime.Microsecond

// mixResult is one engine run of a trace: the as-executed re-recording,
// per-class summaries, and a digest of the full bit-identity surface.
type mixResult struct {
	trace     *workload.Trace
	classes   []stats.ClassSummary
	jain      float64
	offered   int
	completed int
	processed uint64
	digest    uint64
}

// runMixTrace replays (or first-runs) a trace on the sharded engine at the
// requested fidelity, recording every flow's actual start via Plan.OnStart
// and emitting obs flow_start records.
func runMixTrace(o Options, tr *workload.Trace) *mixResult {
	if err := tr.Validate(); err != nil {
		panic(fmt.Sprintf("exp: mix trace: %v", err))
	}
	tc := topo.DefaultConfig()
	e := psim.Build(psim.Config{
		NLeaf: tr.NLeaf, HostsPerLeaf: tr.HostsPerLeaf, NSpine: tr.NSpine,
		Shards: max(o.Shards, 1), Seed: tr.Seed, Topo: tc,
	})
	e.AttachObs(o.Obs)

	plan := psim.PlanFromTrace(tr, tc.HostBW)
	rec := workload.NewPlanRecorder(tr)
	var tracer *obs.Tracer
	if o.Obs != nil {
		tracer = o.Obs.Tracer
	}
	//acclint:ignore barriermut plan wiring before Apply: no shard window has started, so the registration cannot race the run
	plan.OnStart = func(i int, at simtime.Time) {
		// Runs on the shard owning the sender: the recorder slot write is
		// per-flow (race-free by disjointness), the tracer locks internally.
		rec.ObserveStart(i, at)
		f := &tr.Flows[i]
		tracer.FlowStart(at, e.Hosts[f.SrcLeaf][f.SrcHost].ID(), uint64(i+1), f.Bytes, f.Class)
	}

	smp := psim.NewSampler(e.HostPorts(), mixSamplePeriod)
	e.OnBarrier(smp.OnBarrier)

	var app *psim.Applied
	if o.Hybrid() {
		var heng *hybrid.Engine
		app, heng = e.ApplyHybrid(plan, hybrid.DefaultConfig())
		defer func() { o.Obs.AddFidelity(heng.Stats) }()
	} else {
		app = e.Apply(plan)
	}
	e.Run(tr.Horizon)

	var recs []stats.FlowRecord
	completed := 0
	for i := range tr.Flows {
		end := app.End[i]
		if end == 0 {
			continue
		}
		completed++
		start, _ := rec.Observed(i)
		f := &tr.Flows[i]
		recs = append(recs, stats.FlowRecord{Size: f.Bytes, Start: start, End: end, Class: tr.Classes[f.Class].Name})
	}
	classes := stats.ByClass(recs)
	return &mixResult{
		trace:     rec.Trace(),
		classes:   classes,
		jain:      stats.JainByClass(classes),
		offered:   len(tr.Flows),
		completed: completed,
		processed: e.Processed(),
		digest:    e.Digest(app, smp),
	}
}

// traceDigest hashes a trace's canonical binary encoding.
func traceDigest(tr *workload.Trace) uint64 {
	var b bytes.Buffer
	if err := tr.EncodeBinary(&b); err != nil {
		panic(fmt.Sprintf("exp: trace digest: %v", err))
	}
	h := fnv.New64a()
	h.Write(b.Bytes())
	return h.Sum64()
}

// sloMap indexes class name → SLO label from the trace's class table.
func sloMap(tr *workload.Trace) map[string]string {
	m := make(map[string]string, len(tr.Classes))
	for _, c := range tr.Classes {
		m[c.Name] = c.SLO
	}
	return m
}

// mixClassTable renders per-class summaries plus an aggregate row carrying
// the Jain fairness index over class goodputs.
func mixClassTable(title string, classes []stats.ClassSummary, slo map[string]string, jain float64) *Table {
	t := &Table{Title: title, Cols: []string{"class", "slo", "flows", "bytes", "fct_p50", "fct_p99", "mean_gbps"}}
	var flows int
	var bytesTotal int64
	for _, c := range classes {
		t.AddRow(c.Class, slo[c.Class], c.Count, c.Bytes, c.P50, c.P99, c.MeanGbps)
		flows += c.Count
		bytesTotal += c.Bytes
	}
	t.AddRow("ALL(jain)", "", flows, bytesTotal, "", "", jain)
	return t
}

// mixSummaryTable renders run totals and the determinism digests. The
// digests live in table rows (not Notes) deliberately: Table.CSV emits only
// rows, and CI diffs the CSV of a run against its replay.
func mixSummaryTable(title string, res *mixResult) *Table {
	t := &Table{Title: title, Cols: []string{"metric", "value"}}
	t.AddRow("flows_offered", res.offered)
	t.AddRow("flows_completed", res.completed)
	t.AddRow("jain_fairness", res.jain)
	t.AddRow("events_processed", res.processed)
	t.AddRow("run_digest", fmt.Sprintf("%016x", res.digest))
	t.AddRow("trace_digest", fmt.Sprintf("%016x", traceDigest(res.trace)))
	return t
}

// setWorkloadManifest reports the per-class outcome into the obs manifest.
func setWorkloadManifest(o Options, res *mixResult, slo map[string]string, spec string) {
	if o.Obs == nil {
		return
	}
	wm := obs.WorkloadManifest{
		Spec: spec, Trace: o.RecordTrace, Replay: o.ReplayTrace,
		Flows: res.offered, Jain: res.jain,
	}
	for _, c := range res.classes {
		wm.Classes = append(wm.Classes, obs.ClassManifest{
			Name: c.Class, SLO: slo[c.Class], Flows: c.Count, Bytes: c.Bytes,
			FCTp50Ns: int64(c.P50), FCTp99Ns: int64(c.P99), MeanGbps: c.MeanGbps,
		})
	}
	o.Obs.SetWorkload(wm)
}

// mixSourceTrace resolves the run's input traffic: a replay file if given,
// else the (possibly file-loaded) spec expanded at the run seed. It returns
// the trace and the spec name ("" for replays).
func mixSourceTrace(o Options) (*workload.Trace, string) {
	if o.ReplayTrace != "" {
		tr, err := workload.ReadTraceFile(o.ReplayTrace)
		if err != nil {
			panic(fmt.Sprintf("exp: -replay-trace: %v", err))
		}
		return tr, ""
	}
	spec := workload.DefaultMixSpec()
	if o.WorkloadSpec != "" {
		s, err := workload.ReadSpecFile(o.WorkloadSpec)
		if err != nil {
			panic(fmt.Sprintf("exp: -workload-spec: %v", err))
		}
		spec = s
	}
	tr, err := spec.Generate(o.Seed)
	if err != nil {
		panic(fmt.Sprintf("exp: spec %q: %v", spec.Name, err))
	}
	return tr, spec.Name
}

func runMixSpec(o Options) []*Table {
	tr, specName := mixSourceTrace(o)
	res := runMixTrace(o, tr)
	if o.RecordTrace != "" {
		if err := res.trace.WriteFile(o.RecordTrace); err != nil {
			panic(fmt.Sprintf("exp: -record-trace: %v", err))
		}
	}
	slo := sloMap(tr)
	setWorkloadManifest(o, res, slo, specName)
	return []*Table{
		mixClassTable("mix-spec: per-class SLO summary", res.classes, slo, res.jain),
		mixSummaryTable("mix-spec: run summary", res),
	}
}

func runMixReplay(o Options) []*Table {
	tr, specName := mixSourceTrace(o)
	orig := runMixTrace(o, tr)
	replay := runMixTrace(o, orig.trace)
	if orig.digest != replay.digest {
		panic(fmt.Sprintf("exp: mix-replay divergence: original digest %016x, replay %016x", orig.digest, replay.digest))
	}
	if !orig.trace.Equal(replay.trace) {
		panic("exp: mix-replay divergence: re-recorded traces differ")
	}
	if o.RecordTrace != "" {
		if err := orig.trace.WriteFile(o.RecordTrace); err != nil {
			panic(fmt.Sprintf("exp: -record-trace: %v", err))
		}
	}
	slo := sloMap(tr)
	setWorkloadManifest(o, orig, slo, specName)
	t := &Table{Title: "mix-replay: record→replay bit-identity", Cols: []string{"metric", "original", "replay"}}
	t.AddRow("flows_offered", orig.offered, replay.offered)
	t.AddRow("flows_completed", orig.completed, replay.completed)
	t.AddRow("events_processed", orig.processed, replay.processed)
	t.AddRow("run_digest", fmt.Sprintf("%016x", orig.digest), fmt.Sprintf("%016x", replay.digest))
	t.AddRow("trace_digest", fmt.Sprintf("%016x", traceDigest(orig.trace)), fmt.Sprintf("%016x", traceDigest(replay.trace)))
	t.AddRow("identical", true, true)
	return []*Table{t}
}

func runMixCollective(o Options) []*Table {
	net := newNet(o, o.Seed)
	tc := topo.DefaultConfig()
	const nLeaf, hpl, nSpine = 4, 4, 3
	fab := topo.LeafSpine(net, nLeaf, hpl, nSpine, tc)
	horizon := simtime.Time(o.dur(800 * simtime.Microsecond))

	var tracer *obs.Tracer
	if o.Obs != nil {
		tracer = o.Obs.Tracer
	}
	loc := make(map[int][2]int, nLeaf*hpl)
	for l, hs := range fab.HostsAt {
		for i, h := range hs {
			loc[h.ID()] = [2]int{l, i}
		}
	}
	rec := workload.NewLiveRecorder("mix-collective", o.Seed, nLeaf, hpl, nSpine, horizon,
		func(id int) (int, int, bool) { c, ok := loc[id]; return c[0], c[1], ok })
	col := &stats.FCTCollector{}
	params := dcqcn.DefaultParams(tc.HostBW)

	// starter launches class-labeled DCQCN flows, live-recording each into
	// the trace recorder and the obs ring at its start instant.
	starter := func(class, slo string, classIdx int) workload.StartFlowFunc {
		return func(src, dst *netsim.Host, size int64, onDone func()) {
			now := net.Now()
			rec.RecordFlow(now, src.ID(), dst.ID(), size, class, slo, workload.TransportDCQCN)
			tracer.FlowStart(now, src.ID(), 0, size, classIdx)
			dcqcn.Start(net, src, dst, size, params, func(f *dcqcn.Flow) {
				col.AddFlow(f.Size, f.Start, f.End, class)
				if onDone != nil {
					onDone()
				}
			})
		}
	}

	// Tree all-reduce over the data-parallel half (leaves 0–1), MoE
	// all-to-all across leaves 2–3, a 4-stage pipeline diagonal (one stage
	// per leaf), and latency-class background load over every host.
	var treeNodes []*netsim.Host
	treeNodes = append(treeNodes, fab.HostsAt[0]...)
	treeNodes = append(treeNodes, fab.HostsAt[1]...)
	tree := workload.RunTreeAllReduce(net, workload.TreeAllReduceConfig{
		Nodes: treeNodes, Bytes: 64 * simtime.KB, ComputeTime: 5 * simtime.Microsecond,
		Start: starter("tree-allreduce", "bulk", 0),
	})
	var moeNodes []*netsim.Host
	moeNodes = append(moeNodes, fab.HostsAt[2]...)
	moeNodes = append(moeNodes, fab.HostsAt[3][0], fab.HostsAt[3][1])
	moe := workload.RunAllToAll(net, workload.AllToAllConfig{
		Nodes: moeNodes, Bytes: 96 * simtime.KB, ComputeTime: 5 * simtime.Microsecond,
		Start: starter("moe-alltoall", "throughput", 1),
	})
	stages := []*netsim.Host{fab.HostsAt[0][3], fab.HostsAt[1][3], fab.HostsAt[2][3], fab.HostsAt[3][3]}
	pipe := workload.RunPipeline(net, workload.PipelineConfig{
		Stages: stages, MicroBatches: 4, ActivationBytes: 32 * simtime.KB,
		ComputeTime: 10 * simtime.Microsecond,
		Start:       starter("pipeline", "bulk", 2),
	})
	bg := workload.StartPoisson(net, net.Rng.Int63(), workload.PoissonConfig{
		Hosts: fab.Hosts, Sizes: workload.Uniform("bg", 1*simtime.KB, 16*simtime.KB),
		Load: 0.08, HostBW: tc.HostBW,
		Start: starter("background", "latency", 3),
	})

	// Generate for 3/4 of the horizon, then stop sources and drain.
	net.RunUntil(horizon - horizon/4)
	tree.Stop()
	moe.Stop()
	pipe.Stop()
	bg.Stop()
	net.RunUntil(horizon)

	if o.RecordTrace != "" {
		if err := rec.Trace().WriteFile(o.RecordTrace); err != nil {
			panic(fmt.Sprintf("exp: -record-trace: %v", err))
		}
	}

	classes := stats.ByClass(col.Records)
	jain := stats.JainByClass(classes)
	slo := map[string]string{"tree-allreduce": "bulk", "moe-alltoall": "throughput", "pipeline": "bulk", "background": "latency"}
	res := &mixResult{trace: rec.Trace(), classes: classes, jain: jain,
		offered: len(col.Records), completed: len(col.Records), processed: net.Q.Processed()}
	setWorkloadManifest(o, res, slo, "")

	ct := &Table{Title: "mix-collective: collective rates", Cols: []string{"collective", "rounds", "rounds_per_sec", "p50_round"}}
	row := func(name string, rounds int, rps float64, steps []simtime.Duration) {
		p50 := simtime.Duration(0)
		if len(steps) > 0 {
			fs := make([]float64, len(steps))
			for i, s := range steps {
				fs[i] = float64(s)
			}
			// steps arrive in completion order; Percentile wants sorted input
			sort.Float64s(fs)
			p50 = simtime.Duration(stats.Percentile(fs, 0.5))
		}
		ct.AddRow(name, rounds, rps, p50)
	}
	row("tree-allreduce", tree.Rounds, tree.RoundsPerSec(), tree.StepTimes)
	row("moe-alltoall", moe.Rounds, moe.RoundsPerSec(), moe.StepTimes)
	row("pipeline", pipe.Rounds, pipe.RoundsPerSec(), pipe.StepTimes)

	return []*Table{
		mixClassTable("mix-collective: per-class summary", classes, slo, jain),
		ct,
	}
}
