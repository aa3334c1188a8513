package exp

import (
	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/topo"
	"github.com/accnet/acc/internal/workload"
)

// poisson is the FCT scenario most comparisons share: Poisson RDMA
// arrivals over every host of a fabric at 25G, sizes drawn from a CDF at a
// fraction of line rate. Arrivals stop at dur; in-flight flows drain until
// until. Each policy arm runs it on a fresh Network with the run's seed.
type poisson struct {
	fabric     func(*netsim.Network) *topo.Fabric
	sizes      workload.CDF
	load       float64
	dur, until simtime.Duration
}

// poissonRun is one arm of a poisson scenario between start and finish.
// Callers may schedule events on net and read fab and sys.
type poissonRun struct {
	sc   poisson
	net  *netsim.Network
	fab  *topo.Fabric
	sys  *acc.System // the deployed D-ACC system, nil for other policies
	stop func()
	gen  *workload.PoissonGen
	col  stats.FCTCollector
}

// start builds the net and fabric, deploys p and starts the arrivals.
func (sc poisson) start(o Options, p Policy) *poissonRun {
	net := newNet(o, o.Seed)
	r := &poissonRun{sc: sc, net: net, fab: sc.fabric(net)}
	seed := workloadSeed(net)
	r.stop, r.sys = deploy(net, r.fab, p, o)
	r.gen = workload.StartPoisson(net, seed, workload.PoissonConfig{
		Hosts:  r.fab.Hosts,
		Sizes:  sc.sizes,
		Load:   sc.load,
		HostBW: 25 * simtime.Gbps,
		Start:  rdmaStarter(net, 25*simtime.Gbps, &r.col),
	})
	return r
}

// finish runs to dur, stops the arrivals, drains to until, stops the
// policy and returns every completed flow.
func (r *poissonRun) finish() []stats.FlowRecord {
	r.net.RunUntil(simtime.Time(r.sc.dur))
	r.gen.Stop()
	r.net.RunUntil(simtime.Time(r.sc.until))
	r.stop()
	return r.col.Records
}

// run is start followed by finish.
func (sc poisson) run(o Options, p Policy) []stats.FlowRecord {
	return sc.start(o, p).finish()
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
