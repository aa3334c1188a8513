package exp

import (
	"sync/atomic"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/psim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/topo"
	"github.com/accnet/acc/internal/workload"
)

// poisson is the FCT scenario most comparisons share: Poisson RDMA
// arrivals over every host of a fabric at 25G, sizes drawn from a CDF at a
// fraction of line rate. Arrivals stop at dur; in-flight flows drain until
// until. faults, when set, is a faults-only timeline applied to the fabric
// once the arrivals start.
type poisson struct {
	fabric     func(*netsim.Network) *topo.Fabric
	sizes      workload.CDF
	load       float64
	dur, until simtime.Duration
	faults     *psim.Plan
}

// poissonArm is what one arm of a comparison leaves behind: the arm and
// every flow it completed.
type poissonArm struct {
	arm
	flows []stats.FlowRecord
}

// compare runs the scenario once per arm through runArms and returns the
// arms in order: each arm starts its arrivals from its workload seed,
// applies the faults timeline, stops the arrivals at dur and drains.
func (sc poisson) compare(o Options, arms ...Policy) []poissonArm {
	return runArms(o, sc.fabric, 1, arms, func(a arm) poissonArm {
		var col stats.FCTCollector
		gen := workload.StartPoisson(a.net, a.seeds[0], workload.PoissonConfig{
			Hosts:  a.fab.Hosts,
			Sizes:  sc.sizes,
			Load:   sc.load,
			HostBW: 25 * simtime.Gbps,
			Start:  rdmaStarter(a.net, 25*simtime.Gbps, &col),
		})
		if sc.faults != nil {
			psim.ApplyToFabric(a.fab, len(a.fab.HostsAt[0]), sc.faults)
		}
		a.net.RunUntil(simtime.Time(sc.dur))
		gen.Stop()
		a.net.RunUntil(simtime.Time(sc.until))
		return poissonArm{a, col.Records}
	})
}

// fctTable runs the arms through compare and renders one row per arm,
// labelled by its Policy.Name: its average and p99 FCT as ratios to
// arms[base]'s. col heads the label column.
func (sc poisson) fctTable(o Options, title, col, note string, base int, arms ...Policy) []*Table {
	t := &Table{Title: title, Cols: []string{col, "avg FCT", "p99 FCT"}, Notes: []string{note}}
	runs := sc.compare(o, arms...)
	b := stats.Summarize(runs[base].flows)
	for i, r := range runs {
		t.addFCT(arms[i].Name, stats.Summarize(r.flows), b)
	}
	return []*Table{t}
}

// arm is one policy's run in a comparison: the policy's index, its
// Network and fabric, the workload seeds it drew before deploy, and its
// deployed D-ACC system (nil for every other policy).
type arm struct {
	i     int
	net   *netsim.Network
	fab   *topo.Fabric
	seeds []int64
	sys   *acc.System
}

// comparisons numbers the runArms calls, so the test tap can tell which
// arms ran together.
var comparisons atomic.Int64

// runArms runs one comparison: body once per policy, the arms in
// parallel, returning body's results in policy order. Each arm builds a
// fresh Network with the run's seed and its fabric, draws nSeeds workload
// seeds from net.Rng and then deploys its policy, which draws there too,
// so every arm runs one workload. With Options.Obs set, each D-ACC arm's
// counters go into the run manifest, in policy order.
func runArms[T any](o Options, fabric func(*netsim.Network) *topo.Fabric, nSeeds int, policies []Policy, body func(arm) T) []T {
	comparison := comparisons.Add(1)
	out := make([]T, len(policies))
	systems := make([]*acc.System, len(policies))
	forEachParallel(len(policies), func(i int) {
		net := newNet(o, o.Seed)
		fab := fabric(net)
		seeds := make([]int64, nSeeds)
		for s := range seeds {
			seeds[s] = net.Rng.Int63()
		}
		if tap != nil {
			tap.arm(net, o.id, comparison, policies[i], seeds)
		}
		systems[i] = deploy(net, fab, policies[i], o)
		out[i] = body(arm{i: i, net: net, fab: fab, seeds: seeds, sys: systems[i]})
	})
	for i, s := range systems {
		if s != nil && o.Obs != nil {
			o.Obs.AddArm(armCounters(o.label, policies[i].Name, s))
		}
	}
	return out
}

// armCounters reads a D-ACC system's counters for the run manifest.
func armCounters(comparison, name string, s *acc.System) obs.ArmCounters {
	c := obs.ArmCounters{Comparison: comparison, Arm: name, Agents: len(s.Tuners), MinTrainSteps: s.Tuners[0].Agent.TrainSteps(),
		Exchanges: s.Exchanges, GlobalReplay: s.Global.Len(), GlobalReplayCap: s.Global.Cap()}
	for _, t := range s.Tuners {
		c.TrainSteps += t.Agent.TrainSteps()
		c.MinTrainSteps = min(c.MinTrainSteps, t.Agent.TrainSteps())
		c.Inferences += t.Inferences
		c.Skipped += t.Skipped
		c.LocalReplay += t.Agent.Memory.Len()
		c.LocalReplayCap += t.Agent.Memory.Cap()
	}
	// The agents share one TargetSync, so the least trained synced least.
	if ts := s.Tuners[0].Agent.Cfg.TargetSync; ts > 0 {
		c.MinTargetSyncs = c.MinTrainSteps / ts
	}
	return c
}

// testbed is the §5.1 testbed Clos at default link settings.
func testbed(net *netsim.Network) *topo.Fabric {
	return topo.TestbedClos(net, topo.DefaultConfig())
}

// star builds a Star of n hosts with cfg.
func star(n int, cfg topo.Config) func(*netsim.Network) *topo.Fabric {
	return func(net *netsim.Network) *topo.Fabric { return topo.Star(net, n, cfg) }
}

// renew keeps n closed-loop flows of size bytes from src to dst: each
// restarts gap() after it completes, for as long as live (nil = always)
// holds. gap is drawn only once live has passed.
func renew(net *netsim.Network, start workload.StartFlowFunc, src, dst *netsim.Host, size int64, n int, gap func() simtime.Duration, live func() bool) {
	for i := 0; i < n; i++ {
		var loop func()
		loop = func() {
			start(src, dst, size, func() {
				if live == nil || live() {
					net.Q.After(gap(), loop)
				}
			})
		}
		loop()
	}
}
