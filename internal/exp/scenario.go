package exp

import (
	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/netsim"
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

// poissonArm is what one arm of a comparison leaves behind: its fabric,
// its deployed D-ACC system (nil for other policies) and every flow it
// completed.
type poissonArm struct {
	fab   *topo.Fabric
	sys   *acc.System
	flows []stats.FlowRecord
}

// compare runs the scenario once per arm, in parallel, and returns the
// arms in order. Each arm builds a fresh Network with the run's seed and
// draws its workload seed before deploy draws, so every arm runs one
// workload.
func (sc poisson) compare(o Options, arms ...Policy) []poissonArm {
	out := make([]poissonArm, len(arms))
	forEachParallel(len(arms), func(i int) {
		net := newNet(o, o.Seed)
		fab := sc.fabric(net)
		seed := workloadSeed(net)
		stop, sys := deploy(net, fab, arms[i], o)
		var col stats.FCTCollector
		gen := workload.StartPoisson(net, seed, workload.PoissonConfig{
			Hosts:  fab.Hosts,
			Sizes:  sc.sizes,
			Load:   sc.load,
			HostBW: 25 * simtime.Gbps,
			Start:  rdmaStarter(net, 25*simtime.Gbps, &col),
		})
		if sc.faults != nil {
			psim.ApplyToFabric(fab, len(fab.HostsAt[0]), sc.faults)
		}
		net.RunUntil(simtime.Time(sc.dur))
		gen.Stop()
		net.RunUntil(simtime.Time(sc.until))
		stop()
		out[i] = poissonArm{fab: fab, sys: sys, flows: col.Records}
	})
	return out
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

// testbed is the §5.1 testbed Clos at default link settings.
func testbed(net *netsim.Network) *topo.Fabric {
	return topo.TestbedClos(net, topo.DefaultConfig())
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
