// Package perf builds the raw-fabric workload bench/ measures as
// netsim.ns_per_event_16: a leaf-spine fabric saturated by line-rate DCQCN
// flows, with no experiment logic or ACC control loop on top, so the engine
// hot path — eventq scheduling, port serialization/propagation, switch
// forwarding, and transport pacing — is timed apart from everything an
// experiment adds. The package exists for bench/, which imports it.
package perf

import (
	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

// CoreOptions sizes the raw-fabric benchmark.
type CoreOptions struct {
	Seed         int64
	Leaves       int
	HostsPerLeaf int
	Spines       int

	// Warmup is virtual time run before measuring, letting flows ramp, the
	// packet/event pools fill, and queues reach steady state.
	Warmup simtime.Duration
	// Window is the measured span of virtual time.
	Window simtime.Duration
}

// DefaultCoreOptions returns the standard configuration: a 16-host
// leaf-spine fabric with every host driving a cross-leaf DCQCN flow at line
// rate, warmed up for 2ms and measured over 1ms of virtual time. The warmup
// spans many calendar-window rotations of the scheduler, so the event pools
// and bucket slab pool reach their high-water marks before measurement and
// the steady-state window reads exactly zero allocations.
func DefaultCoreOptions() CoreOptions {
	return CoreOptions{
		Seed:         1,
		Leaves:       4,
		HostsPerLeaf: 4,
		Spines:       2,
		Warmup:       2 * simtime.Millisecond,
		Window:       simtime.Millisecond,
	}
}

// Core is a warmed-up raw fabric ready to advance in measured slices.
type Core struct {
	Net *netsim.Network
	Fab *topo.Fabric
}

// NewCore builds the fabric and starts one long-lived line-rate DCQCN flow
// per host toward the same-indexed host on the next leaf, so every flow
// crosses the spine layer and every link stays saturated. Flow sizes are
// effectively infinite: the benchmark measures the steady per-packet path,
// not flow churn.
func NewCore(o CoreOptions) *Core {
	net := netsim.New(o.Seed)
	cfg := topo.DefaultConfig()
	fab := topo.LeafSpine(net, o.Leaves, o.HostsPerLeaf, o.Spines, cfg)
	params := dcqcn.DefaultParams(cfg.HostBW)
	n := len(fab.Hosts)
	per := o.HostsPerLeaf
	for i, src := range fab.Hosts {
		dst := fab.Hosts[(i+per)%n] // same index, next leaf
		dcqcn.Start(net, src, dst, 1<<40, params, nil)
	}
	return &Core{Net: net, Fab: fab}
}

// Warmup advances virtual time so the fabric reaches steady state.
func (c *Core) Warmup(d simtime.Duration) {
	c.Net.RunFor(d)
}

// Advance runs one measured slice of virtual time and returns the number of
// events executed in it.
func (c *Core) Advance(d simtime.Duration) uint64 {
	before := c.Net.Q.Processed()
	c.Net.RunFor(d)
	return c.Net.Q.Processed() - before
}
