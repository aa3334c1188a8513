package psim

import (
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// denseProbe is a no-op event argument that counts how often its shard's
// calendar warmed it (eventq.Warmer): a probe is warmed only on a day of at
// least the warm-ahead threshold of entries. Only the goroutine running the
// probe's shard writes the count.
type denseProbe struct{ warms int }

func (p *denseProbe) Warm() uint64 {
	p.warms++
	return 0
}

// TestDenseDayShardEquivalence runs a saturated 1 152-host fabric on two
// shards, dense enough that each shard's calendar days reach the warm-ahead
// threshold, where a queue reads ahead the ports its next events touch
// while the other shard runs. The run must match the sequential engine bit
// for bit, and under -race it shows the read-ahead shares nothing between
// shards. Each shard carries a probe event on every day of the run, and
// some probe of each must have been warmed, or the test proves nothing.
func TestDenseDayShardEquivalence(t *testing.T) {
	const nLeaf, hostsPerLeaf, nSpine = 12, 96, 6
	horizon := simtime.Time(0).Add(6 * simtime.Microsecond)
	const day = 64 * simtime.Nanosecond
	cfg := testConfig(nLeaf, hostsPerLeaf, nSpine, 1, 1)
	plan := NewPlan(cfg.Topo.HostBW)
	for l := 0; l < nLeaf; l++ {
		for h := 0; h < hostsPerLeaf; h++ {
			plan.Flows = append(plan.Flows, FlowSpec{
				Src: HostRef{Leaf: l, Host: h}, Dst: HostRef{Leaf: (l + 1) % nLeaf, Host: h}, Size: 1 << 40,
			})
		}
	}
	want := runSequential(cfg, plan, horizon)

	cfg.Shards = 2
	probes := make([][]denseProbe, cfg.Shards)
	nop := func(any) {}
	got := runSharded(cfg, plan, horizon, func(e *Engine) {
		for i, sh := range e.Shards {
			probes[i] = make([]denseProbe, int(simtime.Duration(horizon)/day))
			for k := range probes[i] {
				sh.Net.Q.CallAt(simtime.Time(0).Add(simtime.Duration(k)*day), nop, &probes[i][k])
			}
		}
	})
	for i := range probes {
		warmed := 0
		for _, p := range probes[i] {
			warmed += min(p.warms, 1)
		}
		if warmed == 0 {
			t.Fatalf("shard %d: none of its %d probe days was warmed: no day reached the threshold", i, len(probes[i]))
		}
		got.processed -= uint64(len(probes[i]))
	}
	diffResults(t, "dense days, 2 shards", want, got)
}
