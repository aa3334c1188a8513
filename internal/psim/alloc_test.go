package psim

import (
	"testing"

	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

// TestRemoteArrivalZeroAlloc pins the cross-shard hot path at zero
// steady-state allocations: outboxEnd.Deliver transfers packet-object
// ownership into the outbox row (no copy, no release/realloc pair) and
// ScheduleRemoteArrival injects the same object into the receiving queue's
// pooled event path. The barrier cycle is driven inline — RunBefore per
// shard, then exchange — rather than through Engine.Run, so AllocsPerRun
// sees only the simulation path, not worker-goroutine setup.
func TestRemoteArrivalZeroAlloc(t *testing.T) {
	cfg := Config{NLeaf: 2, HostsPerLeaf: 2, NSpine: 1, Shards: 2, Seed: 1, Topo: topo.DefaultConfig()}
	e := Build(cfg)
	p := NewPlan(cfg.Topo.HostBW)
	// Line-rate flows in both directions across the shard cut, effectively
	// infinite so the measured windows sit in steady state. Symmetric
	// traffic keeps the migrating packet objects balanced between pools.
	for h := 0; h < cfg.HostsPerLeaf; h++ {
		p.Flows = append(p.Flows,
			FlowSpec{Src: HostRef{0, h}, Dst: HostRef{1, h}, Size: 1 << 40},
			FlowSpec{Src: HostRef{1, h}, Dst: HostRef{0, h}, Size: 1 << 40})
	}
	e.Apply(p)

	step := func() {
		b := e.now.Add(e.Window)
		for _, sh := range e.Shards {
			sh.Net.Q.RunBefore(b)
		}
		e.now = b
		e.exchange()
	}
	// Warm up past pool/slab high-water marks: ~1.2ms of virtual time.
	for i := 0; i < 2000; i++ {
		step()
	}
	crossed0 := crossCount(e)
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Fatalf("cross-shard barrier cycle allocates %.4f allocs/run in steady state, want 0", avg)
	}
	if crossed := crossCount(e) - crossed0; crossed == 0 {
		t.Fatal("measured windows carried no cross-shard packets; the test exercised nothing")
	}
}

// TestAllocEngineRunK1: on a one-shard engine the caller of Run is the only
// goroutine there is — it runs shard 0's windows itself — so a Run makes no
// worker, no channel and no allocation, however many windows it covers.
func TestAllocEngineRunK1(t *testing.T) {
	e := Build(Config{NLeaf: 4, HostsPerLeaf: 4, NSpine: 2, Shards: 1, Seed: 1, Topo: topo.DefaultConfig()})
	hooked := 0
	e.OnBarrier(func(simtime.Time) { hooked++ })
	run := func() { e.Run(e.Now().Add(10 * e.Window)) }
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("Engine.Run on one shard allocates %v/op, want 0", avg)
	}
	if windows := int(e.Now() / simtime.Time(e.Window)); hooked < 1000 || hooked != windows {
		t.Fatalf("%d barriers hooked over %d windows", hooked, windows)
	}
}

// crossCount sums packets received over the shard cut (spine-side downlink
// receive totals), proving the measured windows actually exercised
// ScheduleRemoteArrival.
func crossCount(e *Engine) uint64 {
	var sum uint64
	for _, row := range e.SpineDown {
		for _, p := range row {
			sum += p.RxBytesTotal
		}
	}
	for _, row := range e.LeafUp {
		for _, p := range row {
			sum += p.RxBytesTotal
		}
	}
	return sum
}
