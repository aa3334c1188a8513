//go:build !race

package hybrid

import (
	"testing"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

// TestAllocFreeTick pins the steady-state tick at zero allocations with
// every part of it at work: live analytic flows to commit, hot links held in
// the visit set, and a freshly touched port to drain and demote each tick.
func TestAllocFreeTick(t *testing.T) {
	r := newVisitRig(t, DefaultConfig(), 4, 8, 2)
	for i, src := range r.fab.HostsAt[0] {
		id := r.net.NextFlowID()
		r.e.StartFlow(r.m.Path(id, src, r.fab.HostsAt[1][i]),
			FlowOpts{ID: uint64(id), Size: 1 << 40, Demand: simtime.Gbps, Prio: 3, Eligible: true},
			noDemote(t), nil)
	}
	idle := r.fab.HostsAt[2] // no flow crosses these NICs, so demoting them converts nothing
	n := 0
	step := func() {
		h := idle[n%len(idle)]
		n++
		r.pause(h, netsim.KindPause)
		r.pause(h, netsim.KindResume)
		r.tick()
	}
	for i := 0; i < 4*len(idle); i++ {
		step()
	}
	if r.e.Stats.Demotions == 0 || r.e.Stats.Promotions == 0 || r.e.AnalyticFlows() != len(r.fab.HostsAt[0]) {
		t.Fatalf("warm-up did not exercise the tick: stats %+v, %d analytic flows", r.e.Stats, r.e.AnalyticFlows())
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("steady-state Tick allocates %v/op, want 0", avg)
	}
}

// TestAllocHybridRenewalLoop pins the renewal path: four senders per leaf
// of a 48-host fabric each restart a 1 MB flow to the same-indexed host on
// the next leaf as the last one ends. Renewals once allocated a Flow, a path
// slice and a closure pair each. With the engine recycling flows and path
// slices and one callback pair hoisted per sender, a steady-state window of
// pure analytic renewals performs ~0.7 amortized allocations (calendar and
// pool growth). Demotion is disabled, since it legitimately allocates the
// packet transports it hands off to. A window holds ~29 renewals, so a
// per-renewal regression reads >= 24 allocs against a budget of 2.
func TestAllocHybridRenewalLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	const leaves, senders = 6, 4
	cfg := topo.DefaultConfig()
	params := dcqcn.DefaultParams(cfg.HostBW)
	net := netsim.New(1)
	fab := topo.LeafSpine(net, leaves, 8, 4, cfg)
	hcfg := DefaultConfig()
	hcfg.DemoteUtil = 1e9 // keep every flow analytic
	hcfg.QueueFrac = 1e9
	eng := New(hcfg, net.Q, net.Tracer)
	mesh := ForFabric(eng, fab)
	for l := 0; l < leaves; l++ {
		for s := 0; s < senders; s++ {
			src, dst := fab.HostsAt[l][s], fab.HostsAt[(l+1)%leaves][s]
			var loop func()
			startPacket := func(*Flow, int64) { panic("hybrid: demotion in analytic-only alloc test") }
			onDone := func(*Flow, simtime.Time) { loop() }
			loop = func() {
				id := net.NextFlowID()
				eng.StartFlow(mesh.Path(id, src, dst),
					FlowOpts{ID: uint64(id), Size: simtime.MB, Prio: params.Prio, Eligible: true},
					startPacket, onDone)
			}
			loop()
		}
	}
	eng.StartTicker()

	// Let pools, slice capacities, and the event calendar settle over a few
	// full renewal generations, then measure whole windows.
	end := simtime.Time(2 * simtime.Millisecond)
	net.Q.RunBefore(end)
	window := 400 * simtime.Microsecond
	avg := testing.AllocsPerRun(20, func() {
		end = end.Add(window)
		net.Q.RunBefore(end)
	})
	if avg > 2 {
		t.Fatalf("hybrid renewal loop allocates %.2f allocs per %v window (want ~1 amortized); the fast path is allocating per renewal again", avg, window)
	}
	if eng.Stats.Demotions != 0 {
		t.Fatalf("test misconfigured: %d demotions occurred, window is not purely analytic", eng.Stats.Demotions)
	}
}
