package main

import (
	"fmt"
	"runtime"

	"github.com/accnet/acc/internal/exp"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/psim"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap"
	"github.com/accnet/acc/internal/sweep"
	"github.com/accnet/acc/internal/topo"
)

// sizes fixes how much simulated work every workload does. Work is set by
// virtual time and seed, never by a wall-clock timer, so event counts
// repeat exactly; -seconds only decides how many repetitions are timed.
type sizes struct {
	// paper-figs. The pinned figures run at accsim's default seed and -seed
	// drives the others: fig14 and fig16 draw heavy-tailed Poisson traffic
	// over a few milliseconds, so their time moves 12-25 % with the seed,
	// and fig8 allocates 14 MB at some seeds and 35 MB at others — more than
	// the bounds in BENCHMARK.json.
	figs, pinned []string
	figScale     float64
	episodes     int // offline pre-training episodes; 0 = exp's default

	// fabric-packet / fabric-sharded
	leaves, hosts, spines int
	warm, slice           simtime.Duration
	slices                int

	// sweep-fork
	sweep     snap.Scenario // Seed filled per run
	warmPoint simtime.Time
	branches  int

	// hybrid-mix
	hybrid  snap.Scenario // Seed filled per run
	hybStep simtime.Duration

	// micro scales the iteration counts of the isolated layer timings.
	micro float64
}

// ops scales an iteration count of an isolated layer timing.
func (s sizes) ops(n int) int { return max(1, int(float64(n)*s.micro)) }

var fullSize = sizes{
	figs: []string{"fig6", "fig10"}, pinned: []string{"fig8", "fig14", "fig16"}, figScale: 1,

	// 2304 hosts: 8x the paper's 288-host simulation.
	leaves: 24, hosts: 96, spines: 12,
	// A slice is ten whole barrier windows (600 ns fabric delay), short
	// enough that a burst of host noise spoils one sample of one step.
	warm: 100 * simtime.Microsecond, slice: 6 * simtime.Microsecond, slices: 34,

	sweep: snap.Scenario{NLeaf: 12, HostsPerLeaf: 24, NSpine: 6, Shards: 1,
		Flows: 3000, MaxBytes: 512 << 10, Spread: 2 * simtime.Millisecond,
		ACC: true, Fidelity: "packet", Horizon: simtime.Time(2 * simtime.Millisecond)},
	warmPoint: simtime.Time(1950 * simtime.Microsecond),
	branches:  24,

	hybrid: snap.Scenario{NLeaf: 24, HostsPerLeaf: 96, NSpine: 12, Shards: 1,
		Flows: 2000, MaxBytes: 512 << 10, Spread: 8 * simtime.Millisecond, MixTCP: true,
		Fidelity: "hybrid", Horizon: simtime.Time(10 * simtime.Millisecond)},
	hybStep: 500 * simtime.Microsecond,

	micro: 1,
}

// smokeSize runs every workload and check end to end in about a second;
// the tests use it and its numbers are never recorded.
var smokeSize = sizes{
	figs: []string{"fig6"}, pinned: []string{"fig10"}, figScale: 0.1, episodes: 1,

	leaves: 4, hosts: 4, spines: 2,
	warm: 20 * simtime.Microsecond, slice: 10 * simtime.Microsecond, slices: 2,

	sweep: snap.Scenario{NLeaf: 4, HostsPerLeaf: 4, NSpine: 2, Shards: 1,
		Flows: 60, MaxBytes: 64 << 10, Spread: 200 * simtime.Microsecond,
		ACC: true, Fidelity: "packet", Horizon: simtime.Time(300 * simtime.Microsecond)},
	warmPoint: simtime.Time(200 * simtime.Microsecond),
	branches:  3,

	hybrid: snap.Scenario{NLeaf: 4, HostsPerLeaf: 8, NSpine: 2, Shards: 1,
		Flows: 100, MaxBytes: 64 << 10, Spread: 500 * simtime.Microsecond, MixTCP: true,
		Fidelity: "hybrid", Horizon: simtime.Time(2 * simtime.Millisecond)},
	hybStep: simtime.Millisecond,

	micro: 0.02,
}

// config is what one workload run is made from.
type config struct {
	seed int64
	size sizes
}

// workload is one fixed list of deterministic steps.
type workload interface {
	// rep runs the list once on fresh state and returns what must stay
	// referenced while the live heap is read.
	rep(r *recorder) any
	// finish runs the cross-checks that need simulation of their own,
	// after the last repetition.
	finish(r *recorder)
	// layers adds the per-layer metrics this workload owns (traced runs).
	layers(r *recorder, m metrics)
}

// workloadDef names a workload, says why it exists, and pins the threads
// it may use.
type workloadDef struct {
	name, why string
	procs     int
	make      func(config) workload
}

var workloadDefs = []workloadDef{
	{"paper-figs", "the paper's control loop on small fabrics through the closure-driven exp path; pretraining is over 90 % of what accsim -exp costs", 1,
		func(c config) workload { return &paperFigs{cfg: c} }},
	{"fabric-packet", "pure packet engine at 8x paper scale with a million resident events and no tuner: eventq, netsim port/switch, dcqcn", 1,
		func(c config) workload { return &fabric{cfg: c} }},
	{"fabric-sharded", "the identical plan on the 2-shard barrier-window engine with two real threads, so a gain for one driver that costs the other shows", 2,
		func(c config) workload { return &fabric{cfg: c, shards: 2} }},
	{"sweep-fork", "warm-start sweep with short tails: snapshot encode beside decode + rebuild-then-overlay, ACC agent state; nothing else touches the codec", 1,
		func(c config) workload { return &sweepFork{cfg: c} }},
	{"hybrid-mix", "hybrid tick, water-filling and demotion with a packet-level TCP+DCQCN minority over a horizon the packet engine could not afford", 1,
		func(c config) workload { return &hybridMix{cfg: c} }},
}

// ----- paper-figs -----

type paperFigs struct {
	cfg    config
	model  *rl.MLP
	tables [][]*exp.Table
}

func (w *paperFigs) options(seed int64) exp.Options {
	o := exp.DefaultOptions()
	o.Seed, o.Scale, o.OfflineEpisodes = seed, w.cfg.size.figScale, w.cfg.size.episodes
	return o
}

func (w *paperFigs) figure(r *recorder, id string, seed int64) {
	r.step("exp."+id, func() (uint64, error) {
		tables, err := exp.Run(id, w.options(seed))
		if err != nil {
			return 0, err
		}
		w.tables = append(w.tables, tables)
		d := newDigest()
		for _, t := range tables {
			d.bytes([]byte(t.CSV()))
		}
		return d.sum(), nil
	})
}

func (w *paperFigs) rep(r *recorder) any {
	if w.model == nil {
		// Once per process, like a user's accsim run: exp caches the model.
		r.setup("exp.pretrain", func() error {
			w.model = exp.PretrainedModel(w.cfg.size.episodes)
			return nil
		})
	}
	w.tables = w.tables[:0]
	for _, id := range w.cfg.size.figs {
		w.figure(r, id, w.cfg.seed)
	}
	for _, id := range w.cfg.size.pinned {
		w.figure(r, id, exp.DefaultOptions().Seed)
	}
	return w
}

func (w *paperFigs) finish(*recorder) {}

// ----- fabric-packet / fabric-sharded -----

// fabric saturates a leaf-spine fabric with one effectively infinite DCQCN
// flow per host to the same index on the next leaf, so every flow crosses
// the spines (and, sharded, the cuts). shards == 0 is the sequential
// engine driven by Q.RunBefore; otherwise psim.Engine.Run.
type fabric struct {
	cfg    config
	shards int

	// Last repetition's world, for finish and layers.
	net *netsim.Network
	fab *topo.Fabric
	eng *psim.Engine

	events      uint64   // events executed by the measured steps
	shardEvents []uint64 // the same, per shard
	seq         totals   // fabric-sharded: the sequential cross-check run
}

func (w *fabric) plan(tc topo.Config) *psim.Plan {
	s := w.cfg.size
	p := psim.NewPlan(tc.HostBW)
	for l := 0; l < s.leaves; l++ {
		for h := 0; h < s.hosts; h++ {
			//acclint:ignore barriermut pre-apply plan construction: the plan is private to this builder until Apply
			p.Flows = append(p.Flows, psim.FlowSpec{
				Src:  psim.HostRef{Leaf: l, Host: h},
				Dst:  psim.HostRef{Leaf: (l + 1) % s.leaves, Host: h},
				Size: 1 << 40,
			})
		}
	}
	return p
}

// fabricDigest hashes what both engines must agree on: the event total and the
// per-switch mark and drop counters, leaves then spines.
func fabricDigest(processed uint64, leaves, spines []*netsim.Switch) uint64 {
	d := newDigest()
	d.u64(processed)
	for _, sws := range [][]*netsim.Switch{leaves, spines} {
		for _, sw := range sws {
			d.u64(sw.MarksTotal)
			d.u64(sw.DropsTotal)
		}
	}
	return d.sum()
}

func (w *fabric) rep(r *recorder) any {
	s, tc := w.cfg.size, topo.DefaultConfig()
	// The two engines differ in how they are built and advanced; the
	// slices, digests and counters are the same code.
	var (
		run            func(simtime.Time)
		processed      func() uint64
		leaves, spines []*netsim.Switch
		shardNets      []*netsim.Network
		hold           any
	)
	if w.shards == 0 {
		r.setup("topo.build", func() error {
			w.net = netsim.New(w.cfg.seed)
			w.fab = topo.LeafSpine(w.net, s.leaves, s.hosts, s.spines, tc)
			return nil
		})
		r.setup("psim.apply", func() error { psim.ApplyToFabric(w.fab, s.hosts, w.plan(tc)); return nil })
		run, processed, hold = w.net.Q.RunBefore, w.net.Q.Processed, w.fab
		leaves, spines = w.fab.Leaves, w.fab.Spines
	} else {
		if runtime.NumCPU() < w.shards {
			r.check("cpus", false, "%d shards need %d CPUs, this host has %d: refusing to time-slice", w.shards, w.shards, runtime.NumCPU())
			return nil
		}
		r.setup("psim.build", func() error {
			w.eng = psim.Build(psim.Config{NLeaf: s.leaves, HostsPerLeaf: s.hosts, NSpine: s.spines,
				Shards: w.shards, Seed: w.cfg.seed, Topo: tc})
			return nil
		})
		r.setup("psim.apply", func() error { w.eng.Apply(w.plan(tc)); return nil })
		run, processed, hold = w.eng.Run, w.eng.Processed, w.eng
		leaves, spines = w.eng.Leaves, w.eng.Spines
		for _, sh := range w.eng.Shards {
			shardNets = append(shardNets, sh.Net)
		}
	}
	r.counters = func() map[string]uint64 {
		c := map[string]uint64{"events": processed()}
		for _, sw := range append(append([]*netsim.Switch{}, leaves...), spines...) {
			c["marks"] += sw.MarksTotal
			c["drops"] += sw.DropsTotal
		}
		for i, net := range shardNets {
			c[fmt.Sprintf("events_shard%d", i)] = net.Q.Processed()
		}
		return c
	}
	r.setup("fabric.warmup", func() error { run(simtime.Time(0).Add(s.warm)); return nil })

	start := processed()
	w.shardEvents = make([]uint64, len(shardNets))
	for i, net := range shardNets {
		w.shardEvents[i] = -net.Q.Processed()
	}
	for i := 0; i < s.slices; i++ {
		until := simtime.Time(0).Add(s.warm + simtime.Duration(i+1)*s.slice)
		r.step(fmt.Sprintf("slice-%02d", i), func() (uint64, error) {
			run(until)
			return fabricDigest(processed(), leaves, spines), nil
		})
	}
	w.events = processed() - start
	for i, net := range shardNets {
		w.shardEvents[i] += net.Q.Processed()
	}
	r.counters = nil
	return hold
}

// finish, sharded: the sequential engine must execute the same events and
// reach the same per-switch counters at every slice boundary. Its one
// repetition also gives psim.speedup its numerator.
func (w *fabric) finish(r *recorder) {
	if w.shards == 0 || w.eng == nil {
		return
	}
	seq, sub := &fabric{cfg: w.cfg}, newRecorder()
	seq.rep(sub)
	r.attempted += sub.attempted
	r.failed += sub.failed
	for _, st := range sub.steps {
		if mine := r.byName[st.name]; !st.setup {
			r.check(st.name+" sharded ≡ sequential", mine != nil && mine.digest == st.digest,
				"sequential digest %016x", st.digest)
		}
	}
	r.check("event total sharded ≡ sequential", seq.events == w.events, "sequential %d, sharded %d", seq.events, w.events)
	w.seq = sub.reduce(nil)
}

// ----- sweep-fork -----

type sweepFork struct {
	cfg   config
	base  *snap.World
	image []byte
}

func (w *sweepFork) scenario() snap.Scenario {
	sc := w.cfg.size.sweep
	sc.Seed = w.cfg.seed
	return sc
}

func (w *sweepFork) rep(r *recorder) any {
	sc := w.scenario()
	// The warm base is shared by every repetition (a snapshot does not
	// advance it); it is built twice so setup_s has two samples.
	if r.rep < 2 {
		if w.base != nil {
			w.base.Stop()
		}
		r.setup("snap.build", func() (err error) { w.base, err = snap.Build(sc); return err })
		r.setup("sweep.warmup", func() error { w.base.Run(w.cfg.size.warmPoint); return nil })
	}
	r.step("snap.encode", func() (uint64, error) {
		w.image = w.base.Snapshot()
		d := newDigest()
		d.bytes(w.image)
		return d.sum(), nil
	})
	runTail := func(f *snap.World) uint64 {
		f.Run(sc.Horizon)
		f.Stop()
		return f.Digest()
	}
	for _, v := range sweep.WREDLadder(w.cfg.size.branches) {
		var f *snap.World
		r.step("fork-"+v.Name, func() (_ uint64, err error) { f, err = snap.Fork(w.image, v); return 0, err })
		r.step("tail-"+v.Name, func() (uint64, error) { return runTail(f), nil })
	}
	r.step("restore", func() (uint64, error) {
		f, err := snap.Restore(w.image)
		if err != nil {
			return 0, err
		}
		return runTail(f), nil
	})
	return w
}

// finish: the base world, never snapshotted as far as it knows, continued
// to the horizon must land where Restore(image) did.
func (w *sweepFork) finish(r *recorder) {
	st := r.byName["restore"]
	var d uint64
	err := guard(func() {
		w.base.Run(w.scenario().Horizon)
		w.base.Stop()
		d = w.base.Digest()
	})
	r.check("restore continuity", err == nil && st != nil && d == st.digest, "uninterrupted digest %016x (err %v)", d, err)
}

// ----- hybrid-mix -----

type hybridMix struct {
	cfg   config
	world *snap.World
}

func worldCounters(w *snap.World) func() map[string]uint64 {
	return func() map[string]uint64 {
		c := map[string]uint64{"events": w.E.Processed()}
		marks, drops := w.E.SwitchTotals()
		for i := range marks {
			c["marks"] += marks[i]
			c["drops"] += drops[i]
		}
		for _, sh := range w.E.Shards {
			c["packets_alloced"] += sh.Net.PacketsAlloced()
		}
		if w.Hyb != nil {
			c["hybrid_ticks"] = w.Hyb.Stats.Ticks
			c["hybrid_demotions"] = w.Hyb.Stats.Demotions
		}
		return c
	}
}

func (w *hybridMix) rep(r *recorder) any {
	sc := w.cfg.size.hybrid
	sc.Seed = w.cfg.seed
	r.setup("snap.build", func() (err error) { w.world, err = snap.Build(sc); return err })
	world := w.world
	r.counters = worldCounters(world)
	for t, i := simtime.Time(0), 0; t < sc.Horizon; i++ {
		t = t.Add(w.cfg.size.hybStep)
		until := t
		r.step(fmt.Sprintf("run-%02d", i), func() (uint64, error) {
			world.Run(until)
			return world.Digest(), nil
		})
	}
	r.counters = nil
	world.Stop()
	return world
}

func (w *hybridMix) finish(r *recorder) {
	s := w.world.Summarize()
	r.check("flows complete", s.FlowsCompleted*100 >= s.FlowsOffered*99, "%d of %d flows completed", s.FlowsCompleted, s.FlowsOffered)
}
