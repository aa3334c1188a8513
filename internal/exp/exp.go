// Package exp contains one runner per table/figure of the paper's
// evaluation (§2.2 motivation figures, §5 testbed and simulation figures,
// and the appendix ablation), plus the ablation studies DESIGN.md calls out.
// Each runner builds the scenario, deploys a policy (static ECN settings or
// ACC), drives the workload, and returns formatted tables whose rows mirror
// what the paper reports.
//
// Scale: runs are scaled to finish in seconds (milliseconds of virtual time,
// thousands of flows) while preserving the paper's *shape* — who wins and by
// roughly what factor. Options.Scale stretches durations and fabric sizes
// toward paper scale.
package exp

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/tcp"
	"github.com/accnet/acc/internal/topo"
)

// Options tune an experiment run.
type Options struct {
	Seed int64
	// Scale multiplies experiment durations (1 = quick defaults; the paper's
	// timescales correspond to Scale >> 1).
	Scale float64
	// Shards, when > 1, splits the fabric across that many event queues of
	// the parallel engine (internal/psim). Only the experiments that run on
	// psim read it (mix-spec, mix-replay); Run refuses it elsewhere.
	Shards int
	// OfflineEpisodes overrides pre-training length for ACC policies
	// (0 = package default).
	OfflineEpisodes int
	// Model, when set, is the offline model every ACC arm deploys in place
	// of PretrainedModel(OfflineEpisodes); ModelFile names the file it was
	// loaded from, for the run manifest (accsim -model).
	Model     *rl.MLP
	ModelFile string
	// Faults parameterizes the robust-* experiments; zero fields fall back
	// to per-experiment defaults.
	Faults FaultOptions
	// Obs, when non-nil, turns on observability for the run: every Network
	// an experiment creates gets the run's Tracer attached and registers
	// its engine totals, and exp.Run stamps the per-run manifest
	// (experiment id, seed, scale, wall time, event/packet totals). Nil —
	// the default — keeps every hook on the zero-overhead nil-tracer path.
	Obs *obs.Run
	// Fidelity selects the simulation mode: "" or "packet" is the full
	// packet-level engine (byte-identical to historical goldens), "hybrid"
	// fast-forwards uncongested traffic in closed form with deterministic
	// demotion to packet level at hotspots (internal/hybrid). Run refuses
	// "hybrid" for an experiment that has not been wired for it.
	Fidelity string
	// WorkloadSpec is a workload-spec JSON file (workload.ParseSpec) for
	// mix-spec and mix-replay; empty selects the built-in three-class default.
	WorkloadSpec string
	// RecordTrace, when set, writes the run's as-executed flow trace to the
	// given file (.bin selects the compact binary format, anything else
	// JSONL). Honored by the mix-* experiments.
	RecordTrace string
	// ReplayTrace, when set, replays the given flow-trace file instead of
	// generating traffic from a spec. Honored by mix-spec and mix-replay.
	ReplayTrace string

	id    string // the experiment Run runs, which runArms reports to tap
	label string // what the next runArms call varies, named in its D-ACC arms' notes
}

// An option is an Options setting only some runners read. A runner names
// the ones it reads when it registers, and Run refuses the others.
type option uint8

const (
	hybridFidelity option = 1 << iota // Fidelity "hybrid"
	shards                            // Shards > 1
	workloadSpec
	recordTrace
	replayTrace
)

// options names each option by the accsim flag that sets it.
var options = []struct {
	opt  option
	flag string
	set  func(Options) bool
}{
	{hybridFidelity, "-fidelity hybrid", Options.Hybrid},
	{shards, "-shards", func(o Options) bool { return o.Shards > 1 }},
	{workloadSpec, "-workload-spec", func(o Options) bool { return o.WorkloadSpec != "" }},
	{recordTrace, "-record-trace", func(o Options) bool { return o.RecordTrace != "" }},
	{replayTrace, "-replay-trace", func(o Options) bool { return o.ReplayTrace != "" }},
}

// Hybrid reports whether the run requests the hybrid-fidelity fast path.
func (o Options) Hybrid() bool { return o.Fidelity == "hybrid" }

// FaultOptions surfaces the fault-injection plan knobs on the command line
// (cmd/accsim -fault-* flags). Each robust-* experiment reads the fields it
// needs and substitutes defaults for zero values.
type FaultOptions struct {
	MTBF     simtime.Duration // robust-flap: mean up time between failures
	MTTR     simtime.Duration // robust-flap: mean down time until repair
	Links    int              // robust-flap: leaf-spine links to flap
	Stale    int              // robust-telemetry: staleness in ΔT slots
	DropProb float64          // robust-telemetry: per-window loss probability
	Degrade  float64          // robust-linkfail: brownout factor in (0,1)
}

// DefaultOptions returns quick-run settings.
func DefaultOptions() Options { return Options{Seed: 1, Scale: 1} }

func (o Options) dur(base simtime.Duration) simtime.Duration {
	if o.Scale <= 0 {
		return base
	}
	return simtime.Duration(float64(base) * o.Scale)
}

// Table is a regenerated paper table/figure: column headers plus rows.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
	Notes []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case simtime.Duration:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Cols)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Cols, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner produces the tables for one experiment.
type Runner func(Options) []*Table

// registry of experiments by id (fig1, fig2, ... table1, ablation-*).
var registry = map[string]entry{}

type entry struct {
	Desc  string
	Run   Runner
	reads option
}

// register adds a runner under id, with the options it reads.
func register(id, desc string, r Runner, reads ...option) {
	e := entry{Desc: desc, Run: r}
	for _, opt := range reads {
		e.reads |= opt
	}
	registry[id] = e
}

// Check reports whether Run would accept id with o: the experiment exists
// and reads every option o sets.
func Check(id string, o Options) error {
	e, ok := registry[id]
	if !ok {
		var valid []string
		for _, l := range List() {
			valid = append(valid, l[0])
		}
		return fmt.Errorf("exp: unknown experiment %q (valid: %s)", id, strings.Join(valid, " "))
	}
	for _, c := range options {
		if !c.set(o) || e.reads&c.opt != 0 {
			continue
		}
		var readers []string
		for _, l := range List() {
			if registry[l[0]].reads&c.opt != 0 {
				readers = append(readers, l[0])
			}
		}
		return fmt.Errorf("exp: %s ignores %s (read only by %s)", id, c.flag, strings.Join(readers, ", "))
	}
	return nil
}

// Run executes the experiment with the given id. With Options.Obs set,
// the run's manifest is stamped around the runner: Begin before the first
// network exists, Finish once the last table is produced (when all the
// run's engines are idle again); and the first table gets one note per
// D-ACC arm the run deployed, its counters, in run order, each naming its
// comparison where the experiment runs several.
func Run(id string, o Options) ([]*Table, error) {
	if err := Check(id, o); err != nil {
		return nil, err
	}
	e := registry[id]
	o.id = id
	o.Obs.Begin(id, o.Seed, o.Scale, obsConfig(o))
	o.Obs.SetShards(o.Shards)
	tables := e.Run(o)
	o.Obs.Finish()
	for _, a := range o.Obs.Manifest().Arms {
		tables[0].Notes = append(tables[0].Notes, a.Note())
	}
	return tables, nil
}

// obsConfig flattens the option knobs that shaped a run into the manifest's
// free-form config map.
func obsConfig(o Options) map[string]string {
	cfg := map[string]string{}
	if o.Shards != 0 {
		cfg["shards"] = fmt.Sprint(o.Shards)
	}
	if o.OfflineEpisodes != 0 {
		cfg["offline_episodes"] = fmt.Sprint(o.OfflineEpisodes)
	}
	f := o.Faults
	if f.MTBF != 0 {
		cfg["fault_mtbf"] = f.MTBF.String()
	}
	if f.MTTR != 0 {
		cfg["fault_mttr"] = f.MTTR.String()
	}
	if f.Links != 0 {
		cfg["fault_links"] = fmt.Sprint(f.Links)
	}
	if f.Stale != 0 {
		cfg["fault_stale"] = fmt.Sprint(f.Stale)
	}
	if f.DropProb != 0 {
		cfg["fault_drop"] = fmt.Sprint(f.DropProb)
	}
	if f.Degrade != 0 {
		cfg["fault_degrade"] = fmt.Sprint(f.Degrade)
	}
	if o.Fidelity != "" && o.Fidelity != "packet" {
		cfg["fidelity"] = o.Fidelity
	}
	if o.WorkloadSpec != "" {
		cfg["workload_spec"] = o.WorkloadSpec
	}
	if o.RecordTrace != "" {
		cfg["record_trace"] = o.RecordTrace
	}
	if o.ReplayTrace != "" {
		cfg["replay_trace"] = o.ReplayTrace
	}
	if len(cfg) == 0 {
		return nil
	}
	return cfg
}

// newNet creates one simulation Network wired to the run's observability:
// the shared Tracer is attached (nil stays nil — zero overhead) and the
// engine's event/packet totals are registered for the manifest. Runners
// use this instead of netsim.New so one flag lights up tracing across
// every experiment, including ones that build many Networks in parallel.
func newNet(o Options, seed int64) *netsim.Network {
	n := netsim.New(seed)
	if o.Obs != nil {
		n.Tracer = o.Obs.Tracer
		o.Obs.RegisterEngine(n.Q.Processed, n.PacketsAlloced)
	}
	return n
}

// List returns the registered experiment ids and descriptions, sorted.
func List() [][2]string {
	var out [][2]string
	//acclint:ignore determinism@1 collection order is irrelevant; the sort below normalizes it
	for id, e := range registry {
		out = append(out, [2]string{id, e.Desc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// ----- policies -----

// Kind selects the tuner a learned Policy deploys; the zero Kind deploys
// the Policy's Static setting instead.
type Kind uint8

const (
	DACC      Kind = iota + 1 // distributed ACC, one agent per switch (§3.4), the deployed design
	CACC                      // the centralized controller baseline (Figure 14)
	HybridACC                 // §6: per-switch inference, centralized training
	HillClimb                 // greedy per-queue search over the same template (ablation)
)

// Policy is one row of a comparison: a static ECN setting or a learned
// tuner of some Kind. The fields after Kind refine D-ACC only.
type Policy struct {
	Name   string
	Static *red.Config
	Kind   Kind
	// FreshModel forces ACC to start untrained (Figure 16's "aggressive
	// version without offline-training").
	FreshModel bool
	// HistoryK overrides the tuner history depth (ablation).
	HistoryK int
	// NoDoubleDQN uses the plain DQN target (ablation).
	NoDoubleDQN bool
	// NoExchange disables the global replay exchange (ablation).
	NoExchange bool
	// NoBusyIdle disables the §4.2 inference gating (ablation).
	NoBusyIdle bool
	// Period overrides the action interval ΔT (ablation).
	Period simtime.Duration
	// TunePrios restricts ACC to specific traffic classes (fig8 tunes only
	// the RDMA class, as deployed).
	TunePrios []int
}

// Static policies used throughout the evaluation (§5.1).
func secn0() Policy { c := red.SECN0(); return Policy{Name: "SECN0", Static: &c} }
func secn1() Policy { c := red.SECN1(); return Policy{Name: "SECN1", Static: &c} }
func secn2(bwGbps float64) Policy {
	c := red.SECN2(bwGbps)
	return Policy{Name: "SECN2", Static: &c}
}
func vendor() Policy    { c := red.VendorDefault(); return Policy{Name: "SECN", Static: &c} }
func accPolicy() Policy { return Policy{Name: "ACC", Kind: DACC} }

// pretrainedMu guards the shared model cache keyed by episode count.
var (
	pretrainedMu sync.Mutex
	pretrained   = map[int]*rl.MLP{}
)

// PretrainedModel returns the offline-trained model (§4.3) of
// acc.DefaultOfflineConfig() run for the given number of episodes (0 = the
// recipe's own). The recipe pretrained_weights.go was generated from is
// read from that table; any other is trained here, once per process.
func PretrainedModel(episodes int) *rl.MLP {
	cfg := acc.DefaultOfflineConfig()
	if episodes > 0 {
		cfg.Episodes = episodes
	}
	pretrainedMu.Lock()
	defer pretrainedMu.Unlock()
	if m, ok := pretrained[cfg.Episodes]; ok {
		return m
	}
	var m *rl.MLP
	if sameRecipe(cfg, pretrainedRecipe()) {
		params := make([]float64, len(pretrainedBits))
		for i, b := range pretrainedBits {
			params[i] = math.Float64frombits(b)
		}
		var err error
		if m, err = rl.NewMLPFromParams(pretrainedSizes[:], params); err != nil {
			panic("exp: pretrained_weights.go: " + err.Error())
		}
	} else {
		// Keep the weights only: the trained Eval drags its optimizer tensors
		// along, and nothing that reads the model (CopyFrom, Forward) wants them.
		m = acc.TrainOffline(cfg).Eval.Clone()
	}
	pretrained[cfg.Episodes] = m
	return m
}

// sameRecipe reports whether a and b train the same model: every field
// equal but Progress, which only reports, and the same reward function.
func sameRecipe(a, b acc.OfflineConfig) bool {
	ra, rb := reflect.ValueOf(a.Tuner.Reward).Pointer(), reflect.ValueOf(b.Tuner.Reward).Pointer()
	a.Progress, b.Progress, a.Tuner.Reward, b.Tuner.Reward = nil, nil, nil, nil
	return ra == rb && reflect.DeepEqual(a, b)
}

// model returns the offline model every ACC arm deploys, Model or else
// PretrainedModel(OfflineEpisodes), and records it in the run manifest.
func (o Options) model() *rl.MLP {
	m, source := o.Model, o.ModelFile
	if m == nil {
		m, source = PretrainedModel(o.OfflineEpisodes), "pretrained"
	}
	if o.Obs != nil {
		o.Obs.SetModel(source, m.Digest())
	}
	return m
}

// tap, when a test sets it, hears what each arm does, by the arm's
// Network: runArms reports the experiment, the comparison (one per runArms
// call), the policy and the workload seeds of each arm, and the starters
// each flow they launch and complete. Arms run in parallel, so its methods
// must be safe for concurrent use.
var tap interface {
	arm(net *netsim.Network, id string, comparison int64, p Policy, seeds []int64)
	flow(net *netsim.Network, src, dst *netsim.Host, size int64)
	done(net *netsim.Network, size int64, start, end simtime.Time)
}

// deploy applies a policy to a fabric. It returns the deployed D-ACC
// system, for experiments that attach telemetry faults or read tuner
// counters; it is nil for every other policy.
func deploy(net *netsim.Network, fab *topo.Fabric, p Policy, o Options) *acc.System {
	switch p.Kind {
	case DACC:
		scfg := acc.DefaultSystemConfig()
		if p.HistoryK > 0 {
			scfg.Tuner.HistoryK = p.HistoryK
		}
		if p.Period > 0 {
			scfg.Tuner.Period = p.Period
		}
		if p.NoBusyIdle {
			scfg.Tuner.BusyIdle = false
		}
		if p.NoExchange {
			scfg.ExchangePeriod = 0
		}
		if len(p.TunePrios) > 0 {
			scfg.Tuner.Prios = p.TunePrios
		}
		ac := rl.DefaultAgentConfig(scfg.Tuner.StateDim(), len(scfg.Tuner.Template))
		if p.NoDoubleDQN {
			ac.DoubleDQN = false
		}
		var model *rl.MLP
		if !p.FreshModel && p.HistoryK == 0 {
			// Only the paper-shaped state can reuse the shared model.
			model = o.model()
		}
		if model != nil {
			// Deploying a pre-trained model: online learning is gentle
			// fine-tuning, not re-training — large steps at simulation
			// timescales destroy the offline policy.
			ac.LR = 1e-4
			scfg.Tuner.TrainEvery = 4
		}
		scfg.Tuner.Agent = ac
		s := acc.NewSystem(net, fab.Switches(), model, scfg)
		if model != nil {
			// Pre-trained deployment keeps only a sliver of exploration
			// (§4.3: fast exponential decay to avoid unstable exploring).
			s.SetEpsilon(0.01)
		}
		return s
	case CACC:
		acc.NewCentralized(net, fab.Leaves, fab.Spines)
	case HybridACC:
		acc.NewHybrid(net, fab.Switches(), o.model()).SetEpsilon(0.01)
	case HillClimb:
		for _, sw := range fab.Switches() {
			acc.NewHillClimber(net, sw)
		}
	default:
		for _, sw := range fab.Switches() {
			sw.SetRED(*p.Static)
		}
	}
	return nil
}

// ----- transport starters -----

// rdmaStarter returns a StartFlowFunc launching DCQCN flows and recording
// completions into col (which may be nil).
func rdmaStarter(net *netsim.Network, bw simtime.Rate, col *stats.FCTCollector) func(src, dst *netsim.Host, size int64, onDone func()) {
	params := dcqcn.DefaultParams(bw)
	return func(src, dst *netsim.Host, size int64, onDone func()) {
		if tap != nil {
			tap.flow(net, src, dst, size)
		}
		dcqcn.Start(net, src, dst, size, params, func(f *dcqcn.Flow) {
			flowDone(net, col, "rdma", f.Size, f.Start, f.End, onDone)
		})
	}
}

// tcpStarter is the TCP analogue of rdmaStarter, using DCTCP on prio 0.
func tcpStarter(net *netsim.Network, col *stats.FCTCollector, ecn bool) func(src, dst *netsim.Host, size int64, onDone func()) {
	params := tcp.DefaultParams()
	params.ECN = ecn
	return func(src, dst *netsim.Host, size int64, onDone func()) {
		if tap != nil {
			tap.flow(net, src, dst, size)
		}
		tcp.Start(net, src, dst, size, params, func(f *tcp.Flow) {
			flowDone(net, col, "tcp", f.Size, f.Start, f.End, onDone)
		})
	}
}

// flowDone is the completion path both starters share: record the flow
// into col (which may be nil) under class, report it to the tap, then call
// onDone (which may be nil).
func flowDone(net *netsim.Network, col *stats.FCTCollector, class string, size int64, start, end simtime.Time, onDone func()) {
	if col != nil {
		col.AddFlow(size, start, end, class)
	}
	if tap != nil {
		tap.done(net, size, start, end)
	}
	if onDone != nil {
		onDone()
	}
}

// forEachParallel runs fn(i) for i in [0,n) across CPUs. Each experiment
// run owns an independent Network (and RNG), so cross-run parallelism keeps
// per-run determinism while cutting wall time.
func forEachParallel(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// ratio renders x/base as a table cell, or "n/a" when either side is 0:
// an arm that completed nothing has no ratio, and a 0 would read as a win.
func ratio[T ~int64 | ~float64](x, base T) string {
	if x == 0 || base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3g", float64(x)/float64(base))
}

// addRatios appends a row: the label cells, then each of xs as a ratio
// to xs[base].
func (t *Table) addRatios(xs []float64, base int, label ...any) {
	for _, x := range xs {
		label = append(label, ratio(x, xs[base]))
	}
	t.AddRow(label...)
}

// addFCT appends a row: label, s's average and p99 FCT as ratios to
// base's, then any extra cells.
func (t *Table) addFCT(label any, s, base stats.FCTSummary, extra ...any) {
	t.AddRow(append([]any{label, ratio(s.Avg, base.Avg), ratio(s.P99, base.P99)}, extra...)...)
}

// gbps formats a rate in Gbit/s.
func gbps(bytes uint64, d simtime.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e9
}

// kb formats bytes as KB.
func kb(b float64) float64 { return b / 1024 }
