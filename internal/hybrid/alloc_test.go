//go:build !race

package hybrid

import (
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
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
