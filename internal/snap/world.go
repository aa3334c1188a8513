// Package snap is the snapshot/fork engine: full-state capture of a
// running sharded simulation — event calendar, switch buffers and
// in-flight packets, transport state machines, ACC agents and their
// optimizer state, RNG streams, samplers — behind a versioned binary
// codec (internal/snap/codec), plus the warm-start branching that makes
// parameter sweeps cheap.
//
// The restore protocol is rebuild-then-overlay: a snapshot is restored
// into a world rebuilt by the *same construction code* (Build runs again
// with the Scenario recorded in the stream), so every closure, routing
// table, and pre-bound method value exists and is bound to live objects;
// the overlay then clears the rebuilt event queues, restores counters and
// per-object dynamic state, re-materializes pending events at their
// recorded (time, seq) slots, and fast-forwards every RNG stream to its
// recorded draw count. Because the streams are replayed rather than
// replaced, restore-then-run is bit-identical to never having
// snapshotted, and a branch forked from a warm snapshot is bit-identical
// to a cold run that applied the same variant at the same instant
// (TestRestoreContinuity, TestForkMatchesColdRun).
package snap

import (
	"fmt"
	"sync"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/hybrid"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/psim"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

// Scenario is the complete, self-contained recipe for one world: every
// input Build consumes. It is serialized into the snapshot stream, so a
// snapshot file alone is enough to rebuild the world it was taken from —
// crash-resume needs no side channel.
type Scenario struct {
	// Topology: a leaf–spine fabric sharded Shards ways (clamped to
	// [1, NLeaf] by the partitioner).
	NLeaf, HostsPerLeaf, NSpine, Shards int

	// Seed drives every RNG stream in the world (per-node streams are
	// keyed on (Seed, node id); the flow plan draws from Seed+1).
	Seed int64

	// Workload: Flows random cross-fabric transfers, sizes uniform in
	// [1 KB, MaxBytes], starts uniform in [0, Spread); every third flow
	// runs TCP when MixTCP is set.
	Flows    int
	MaxBytes int64
	Spread   simtime.Duration
	MixTCP   bool

	// Faults: FaultLinks leaf–spine links flap with exponential up/down
	// times (mean MTBF/MTTR) expanded at plan time from FaultSeed.
	FaultLinks int
	MTBF, MTTR simtime.Duration
	FaultSeed  int64

	// Horizon bounds the run (and the fault expansion).
	Horizon simtime.Time

	// Fidelity selects the engine: "packet" (or "") for pure
	// packet-level, "hybrid" for the flow-level fast-forward overlay.
	Fidelity string

	// WRED, when non-nil, overrides every switch's ECN template at build
	// time (and scales the hybrid queue trigger to its Kmin).
	WRED *red.Config

	// ACC deploys one acc.System per shard over that shard's local
	// switches. Snapshots of ACC worlds are layout-specific either way;
	// per-shard deployment keeps every tuner on the queue that owns its
	// switch.
	ACC bool

	// SamplePeriod is the goodput sampler cadence (0 = 20µs).
	SamplePeriod simtime.Duration
}

// Validate reports whether the scenario can be built.
func (sc *Scenario) Validate() error {
	if sc.NLeaf < 2 || sc.HostsPerLeaf < 1 || sc.NSpine < 1 {
		return fmt.Errorf("snap: topology %dx%dx%d needs >=2 leaves, >=1 host/leaf, >=1 spine",
			sc.NLeaf, sc.HostsPerLeaf, sc.NSpine)
	}
	if sc.Horizon <= 0 {
		return fmt.Errorf("snap: horizon must be positive")
	}
	if sc.Flows < 0 || sc.Spread < 0 || simtime.Time(sc.Spread) > sc.Horizon {
		return fmt.Errorf("snap: %d flows starting over %v: want a non-negative count starting within the %v horizon", sc.Flows, sc.Spread, sc.Horizon)
	}
	switch sc.Fidelity {
	case "", "packet", "hybrid":
	default:
		return fmt.Errorf("snap: unknown fidelity %q (want 'packet' or 'hybrid')", sc.Fidelity)
	}
	if sc.FaultLinks > 0 && (sc.MTBF <= 0 || sc.MTTR <= 0) {
		return fmt.Errorf("snap: fault links need positive MTBF and MTTR")
	}
	if sc.WRED != nil {
		if err := sc.WRED.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// hybridFidelity reports whether the scenario runs the hybrid overlay.
func (sc *Scenario) hybridFidelity() bool { return sc.Fidelity == "hybrid" }

// World is one live simulation built from a Scenario: the sharded engine,
// the applied plan, the optional hybrid overlay and ACC deployments, and
// the goodput sampler. All of it is captured by Snapshot and rebuilt by
// Restore.
type World struct {
	//acclint:ignore snapcover visited ahead of the walk by header: Restore reads it to Build the world the walk overlays
	Sc Scenario
	E  *psim.Engine
	// Plan is shared with every other world of the scenario (scenarioPlan)
	// and read-only.
	//acclint:ignore snapcover built from the scenario by Build
	Plan *psim.Plan
	App  *psim.Applied
	//acclint:ignore snapcover built from the scenario by Build (ApplyHybrid); its state is visited through App
	Hyb *hybrid.Engine // nil at packet fidelity
	ACC []*acc.System  // one per shard when Sc.ACC; nil otherwise
	Smp *psim.Sampler
	// imageLen is the length of the image last saved or restored: the next
	// Snapshot starts its writer there instead of doubling up from 4 KB.
	imageLen int
}

// planCache holds the plan last built, keyed by its scenario less the fields
// a plan is not drawn from: every world of one scenario (a sweep's forks, a
// restore) shares one plan, and with it the plan's start layouts.
var planCache struct {
	sync.Mutex
	key  Scenario
	plan *psim.Plan
}

// scenarioPlan returns sc's plan, drawn only when the cache holds another.
func scenarioPlan(sc Scenario, hostBW simtime.Rate) *psim.Plan {
	key := sc
	key.Shards, key.Fidelity, key.WRED, key.ACC, key.SamplePeriod = 0, "", nil, false, 0
	planCache.Lock()
	defer planCache.Unlock()
	if planCache.plan == nil || planCache.key != key {
		plan := psim.NewPlan(hostBW).
			RandomFlows(sc.NLeaf, sc.HostsPerLeaf, sc.Flows, sc.MaxBytes, sc.Spread, sc.MixTCP, sc.Seed+1)
		for k := 0; k < sc.FaultLinks; k++ {
			plan.Flap(psim.LeafSpineLink(k%sc.NLeaf, k%sc.NSpine), sc.MTBF, sc.MTTR, sc.Horizon, sc.FaultSeed+int64(k))
		}
		planCache.key, planCache.plan = key, plan
	}
	return planCache.plan
}

// Build constructs a world from the scenario. Construction is a pure
// function of the scenario: running it twice produces identical worlds
// (same node ids, same event sequence numbers, same RNG stream
// positions), which is the property the restore overlay depends on.
func Build(sc Scenario) (*World, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	tc := topo.DefaultConfig()
	e := psim.Build(psim.Config{
		NLeaf: sc.NLeaf, HostsPerLeaf: sc.HostsPerLeaf, NSpine: sc.NSpine,
		Shards: sc.Shards, Seed: sc.Seed, Topo: tc,
	})
	if sc.WRED != nil {
		for _, sw := range e.Leaves {
			sw.SetRED(*sc.WRED)
		}
		for _, sw := range e.Spines {
			sw.SetRED(*sc.WRED)
		}
	}

	plan := scenarioPlan(sc, tc.HostBW)
	w := &World{Sc: sc, E: e, Plan: plan}
	if sc.hybridFidelity() {
		hcfg := hybrid.DefaultConfig()
		if sc.WRED != nil {
			hcfg.Kmin = sc.WRED.Kmin
		}
		w.App, w.Hyb = e.ApplyHybrid(plan, hcfg)
	} else {
		w.App = e.Apply(plan)
	}

	if sc.ACC {
		for _, sh := range e.Shards {
			sws := append(append([]*netsim.Switch{}, sh.Leaves...), sh.Spines...)
			if len(sws) == 0 {
				continue
			}
			w.ACC = append(w.ACC, acc.NewSystem(sh.Net, sws, nil, acc.DefaultSystemConfig()))
		}
	}

	period := sc.SamplePeriod
	if period <= 0 {
		period = 20 * simtime.Microsecond
	}
	w.Smp = psim.NewSampler(e.HostPorts(), period)
	e.OnBarrier(w.Smp.OnBarrier)
	return w, nil
}

// AttachObs mirrors the engine's drop/mark/fault telemetry into an obs
// run. Call before Run; safe with a nil run.
func (w *World) AttachObs(run *obs.Run) { w.E.AttachObs(run) }

// Run advances the world to the given virtual time (a whole number of
// barrier windows past it, like psim.Engine.Run). After Run returns the
// engine is quiescent, which is when Snapshot may be called.
func (w *World) Run(until simtime.Time) { w.E.Run(until) }

// Now returns the last barrier the world has reached.
func (w *World) Now() simtime.Time { return w.E.Now() }

// Finish folds end-of-run accounting (hybrid fidelity counters) into the
// obs run. Safe with a nil run.
func (w *World) Finish(run *obs.Run) {
	if run != nil && w.Hyb != nil {
		run.AddFidelity(w.Hyb.Stats)
	}
}

// Variant is one branch overlay applied to a restored (or warm) world at
// the branch instant: the scenario knobs a sweep explores without paying
// for a fresh warmup.
type Variant struct {
	// Name labels the branch in results and artifact file names.
	Name string

	// WRED, when non-nil, retunes every switch's ECN template at the
	// branch instant (the static analogue of one ACC action).
	WRED *red.Config

	// Faults are extra link events injected at or after the branch
	// instant, on top of the scenario's own fault plan.
	Faults []psim.FaultEvent

	// Epsilon, when non-nil, overrides every ACC agent's exploration
	// rate (ACC scenarios only).
	Epsilon *float64
}

// ApplyVariant overlays a branch variant on the world at the current
// instant. Apply it at the same virtual time on a warm fork and on a cold
// run and the two branches stay bit-identical: the restored event-queue
// counters put the variant's events at the same (time, seq) slots in
// both.
func (w *World) ApplyVariant(v Variant) error {
	if v.WRED != nil {
		if err := v.WRED.Validate(); err != nil {
			return err
		}
		for _, sw := range w.E.Leaves {
			sw.SetRED(*v.WRED)
		}
		for _, sw := range w.E.Spines {
			sw.SetRED(*v.WRED)
		}
	}
	if err := w.E.ScheduleFaults(v.Faults); err != nil {
		return fmt.Errorf("snap: variant %q: %w", v.Name, err)
	}
	if v.Epsilon != nil {
		for _, s := range w.ACC {
			s.SetEpsilon(*v.Epsilon)
		}
	}
	return nil
}

// Stop halts the world's periodic machinery (ACC tick/exchange loops) so
// a finished world stops scheduling work.
func (w *World) Stop() {
	for _, s := range w.ACC {
		s.Stop()
	}
}
