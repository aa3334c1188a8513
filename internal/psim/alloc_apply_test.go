//go:build !race

package psim

import (
	"runtime"
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// TestAllocApplyIndependentOfFlowCount pins what a plan costs per flow once
// applied: Applied's per-flow result slices and 8 bytes per flow half for the
// start cursors, whatever the flow count, with no event or closure per flow.
// A 1 000-flow and a 10 000-flow plan leave the same events pending: one per
// queue with starts.
func TestAllocApplyIndependentOfFlowCount(t *testing.T) {
	cfg := testConfig(4, 4, 2, 2, 1)
	pending := map[int]int{}
	for _, n := range []int{1000, 10000} {
		p := NewPlan(cfg.Topo.HostBW).RandomFlows(4, 4, n, 64<<10, simtime.Millisecond, true, 7)
		e := Build(cfg)
		for _, sh := range e.Shards {
			// A queue makes its calendar on its first insert, plan or not.
			sh.Net.Q.At(0, func() {})
			sh.Net.Q.Run()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.Apply(p)
		runtime.ReadMemStats(&after)

		for _, sh := range e.Shards {
			pending[n] += sh.Net.Q.Pending()
		}
		if pending[n] != len(e.Shards) {
			t.Errorf("%d flows: %d events pending after Apply, want one per shard queue (%d)", n, pending[n], len(e.Shards))
		}
		extra, limit := after.TotalAlloc-before.TotalAlloc-perFlowSlices(n), uint64(16*n+16<<10)
		t.Logf("%d flows: %d bytes beyond the per-flow slices", n, extra)
		if extra > limit {
			t.Errorf("%d flows: Apply allocates %d bytes beyond the per-flow slices (%.1f a flow), want at most %d",
				n, extra, float64(extra)/float64(n), limit)
		}
	}
	if pending[1000] != pending[10000] {
		t.Errorf("pending events after Apply depend on the flow count: %v", pending)
	}
}

var sink []any

// perFlowSlices is what Applied's per-flow slices allocate for n flows:
// DCQCNSend, DCQCNRecv, TCPSend and TCPRecv hold a pointer each, End a time.
func perFlowSlices(n int) uint64 {
	var before, after runtime.MemStats
	sink = make([]any, 0, 5)
	runtime.ReadMemStats(&before)
	for range 4 {
		sink = append(sink, make([]*int, n))
	}
	sink = append(sink, make([]simtime.Time, n))
	runtime.ReadMemStats(&after)
	sink = nil
	return after.TotalAlloc - before.TotalAlloc
}
