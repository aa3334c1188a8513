package psim

import (
	"fmt"
	"testing"

	"github.com/accnet/acc/internal/hybrid"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

// BenchmarkIdleWindow is one barrier window with nothing to simulate: the
// hand-off to the workers of shards 1…K−1 (none at k1), the exchange and the
// hooks. It is what bench's psim.window_ns_k1 / psim.window_ns_k2 time.
func BenchmarkIdleWindow(b *testing.B) {
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			e := Build(Config{NLeaf: 4, HostsPerLeaf: 4, NSpine: 2, Shards: k, Seed: 1, Topo: topo.DefaultConfig()})
			b.ReportAllocs()
			b.ResetTimer()
			e.Run(e.Now().Add(simtime.Duration(b.N) * e.Window))
		})
	}
}

// BenchmarkSparseBarrier is the hybrid barrier on the 2 304-host fabric when
// almost nothing changes: one admission every hundredth barrier — a 64 KB
// flow that completes analytically 35 barriers later — and idle barriers in
// between. The barrier should cost what changed, not the 5 184 links and the
// whole plan.
func BenchmarkSparseBarrier(b *testing.B) {
	cfg := Config{NLeaf: 24, HostsPerLeaf: 96, NSpine: 12, Shards: 1, Seed: 1, Topo: topo.DefaultConfig()}
	e := Build(cfg)
	p := NewPlan(cfg.Topo.HostBW)
	for k := 0; k*100 < b.N; k++ {
		p.Flows = append(p.Flows, FlowSpec{
			Src:   HostRef{k % cfg.NLeaf, k / cfg.NLeaf % cfg.HostsPerLeaf},
			Dst:   HostRef{(k + 1) % cfg.NLeaf, k / cfg.NLeaf % cfg.HostsPerLeaf},
			Size:  64 * simtime.KB,
			Start: simtime.Time(simtime.Duration(k*100) * e.Window),
		})
	}
	_, eng := e.ApplyHybrid(p, hybrid.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(e.Now().Add(simtime.Duration(b.N) * e.Window))
	b.StopTimer()
	if eng.Stats.PacketFlows != 0 || eng.Stats.FlowsStarted != uint64(len(p.Flows)) {
		b.Fatalf("stats %+v, want all %d flows admitted and none at packet level", eng.Stats, len(p.Flows))
	}
}
