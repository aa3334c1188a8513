package psim

import (
	"fmt"
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

// runResult captures everything the bit-identity contract compares between
// engines: per-flow receiver completion times, per-switch mark/drop
// counters, fabric-wide loss aggregates, the sampled goodput series, total
// events executed, and sender-side completion.
type runResult struct {
	ends       []simtime.Time
	marks      []uint64
	drops      []uint64
	blackholed uint64
	bufDrops   uint64
	pfcPauses  uint64
	goodTimes  []simtime.Time
	goodGbps   []float64
	processed  uint64
	sendersUp  int // senders not yet torn down at the horizon
}

const samplePeriod = 20 * simtime.Microsecond

// runSharded executes plan on a K-shard engine to the horizon; setup, if
// given, runs on the applied engine before it starts.
func runSharded(cfg Config, plan *Plan, horizon simtime.Time, setup ...func(*Engine)) runResult {
	e := Build(cfg)
	app := e.Apply(plan)
	for _, f := range setup {
		f(e)
	}
	smp := NewSampler(e.HostPorts(), samplePeriod)
	e.OnBarrier(smp.OnBarrier)
	e.Run(horizon)

	marks, drops := e.SwitchTotals()
	return result(app, e.Losses(), marks, drops, smp, e.Processed())
}

// runSequential executes the same plan on a plain topo.LeafSpine fabric in
// one event loop, driven at the identical barrier cadence; setup, if given,
// runs on the applied fabric before it starts.
func runSequential(cfg Config, plan *Plan, horizon simtime.Time, setup ...func(*topo.Fabric)) runResult {
	return runSequentialWith(cfg, horizon, func(fab *topo.Fabric) *Applied { return ApplyToFabric(fab, cfg.HostsPerLeaf, plan) }, setup...)
}

// runSequentialWith is runSequential with the plan applied by apply.
func runSequentialWith(cfg Config, horizon simtime.Time, apply func(*topo.Fabric) *Applied, setup ...func(*topo.Fabric)) runResult {
	net := netsim.New(cfg.Seed)
	fab := topo.LeafSpine(net, cfg.NLeaf, cfg.HostsPerLeaf, cfg.NSpine, cfg.Topo)
	app := apply(fab)
	for _, f := range setup {
		f(fab)
	}

	smp := NewSampler(fab.HostPorts(), samplePeriod)
	part := topo.PartitionLeafSpine(cfg.NLeaf, cfg.HostsPerLeaf, cfg.NSpine, 1, cfg.Topo)
	// The sequential baseline at Engine.Run's barrier cadence, so samples
	// fall at the same instants with the same run-to-barrier semantics.
	for now := net.Q.Now(); now < horizon; {
		now = min(now.Add(part.Lookahead), horizon)
		net.Q.RunBefore(now)
		smp.OnBarrier(now)
	}

	var marks, drops []uint64
	for _, sw := range fab.Switches() {
		marks = append(marks, sw.MarksTotal)
		drops = append(drops, sw.DropsTotal)
	}
	return result(app, FabricLosses(fab), marks, drops, smp, net.Q.Processed())
}

// result gathers one finished run's runResult.
func result(app *Applied, loss Losses, marks, drops []uint64, smp *Sampler, processed uint64) runResult {
	res := runResult{
		ends:       app.End,
		marks:      marks,
		drops:      drops,
		blackholed: loss.Blackholed,
		bufDrops:   loss.BufferDrops,
		pfcPauses:  loss.PFCPauses,
		goodTimes:  smp.Goodput.Times,
		goodGbps:   smp.Goodput.Values,
		processed:  processed,
	}
	for i := range app.End {
		if f := app.DCQCNSend[i]; f != nil && !f.SenderDone() {
			res.sendersUp++
		}
		if f := app.TCPSend[i]; f != nil && !f.Acked() {
			res.sendersUp++
		}
	}
	return res
}

func diffResults(t *testing.T, label string, want, got runResult) {
	t.Helper()
	for i := range want.ends {
		if want.ends[i] != got.ends[i] {
			t.Errorf("%s: flow %d end %v, want %v", label, i, got.ends[i], want.ends[i])
		}
	}
	for i := range want.marks {
		if want.marks[i] != got.marks[i] {
			t.Errorf("%s: switch %d marks %d, want %d", label, i, got.marks[i], want.marks[i])
		}
		if want.drops[i] != got.drops[i] {
			t.Errorf("%s: switch %d drops %d, want %d", label, i, got.drops[i], want.drops[i])
		}
	}
	if want.blackholed != got.blackholed || want.bufDrops != got.bufDrops || want.pfcPauses != got.pfcPauses {
		t.Errorf("%s: aggregates (blackholed %d, bufdrops %d, pfc %d), want (%d, %d, %d)",
			label, got.blackholed, got.bufDrops, got.pfcPauses,
			want.blackholed, want.bufDrops, want.pfcPauses)
	}
	if len(want.goodTimes) != len(got.goodTimes) {
		t.Fatalf("%s: %d goodput samples, want %d", label, len(got.goodTimes), len(want.goodTimes))
	}
	for i := range want.goodTimes {
		if want.goodTimes[i] != got.goodTimes[i] || want.goodGbps[i] != got.goodGbps[i] {
			t.Errorf("%s: sample %d = (%v, %v), want (%v, %v)", label, i,
				got.goodTimes[i], got.goodGbps[i], want.goodTimes[i], want.goodGbps[i])
		}
	}
	if want.processed != got.processed {
		t.Errorf("%s: %d events processed, want %d", label, got.processed, want.processed)
	}
	if want.sendersUp != got.sendersUp {
		t.Errorf("%s: %d senders alive at horizon, want %d", label, got.sendersUp, want.sendersUp)
	}
}

// TestShardEquivalence is the tentpole differential proof: for several seeds
// and a mixed DCQCN/TCP workload, the sequential engine and 1-, 2-, and
// 4-shard layouts produce bit-identical per-flow completion times, per-switch
// counters, sampled goodput, and total event counts.
func TestShardEquivalence(t *testing.T) {
	const nLeaf, hostsPerLeaf, nSpine = 4, 4, 3
	horizon := simtime.Time(0).Add(3 * simtime.Millisecond)

	for _, seed := range []int64{1, 7, 23} {
		cfg := testConfig(nLeaf, hostsPerLeaf, nSpine, 1, seed)
		plan := NewPlan(cfg.Topo.HostBW).
			RandomFlows(nLeaf, hostsPerLeaf, 36, 48<<10, 300*simtime.Microsecond, true, seed*1000+9)

		want := runSequential(cfg, plan, horizon)
		done := 0
		for _, e := range want.ends {
			if e != 0 {
				done++
			}
		}
		if done != len(plan.Flows) {
			t.Fatalf("seed %d: only %d/%d flows completed sequentially — horizon too small for a meaningful diff", seed, done, len(plan.Flows))
		}
		if want.sendersUp != 0 {
			t.Fatalf("seed %d: %d senders never tore down", seed, want.sendersUp)
		}

		for _, k := range []int{1, 2, 4} {
			cfg.Shards = k
			got := runSharded(cfg, plan, horizon)
			diffResults(t, labelKS(seed, k), want, got)
		}
	}
}

func labelKS(seed int64, k int) string {
	return fmt.Sprintf("seed %d shards %d", seed, k)
}

// TestShardEquivalenceUnderFaults repeats the differential proof with link
// faults in the plan: a hard down/up on a host-leaf link plus flaps on two
// leaf-spine links (one of which crosses shards in every K>1 layout, and is
// browned out for 200 µs while flows run).
func TestShardEquivalenceUnderFaults(t *testing.T) {
	const nLeaf, hostsPerLeaf, nSpine = 4, 4, 3
	horizon := simtime.Time(0).Add(3 * simtime.Millisecond)

	for _, seed := range []int64{5, 11} {
		cfg := testConfig(nLeaf, hostsPerLeaf, nSpine, 1, seed)
		plan := NewPlan(cfg.Topo.HostBW).
			RandomFlows(nLeaf, hostsPerLeaf, 30, 48<<10, 300*simtime.Microsecond, true, seed*77+1)
		plan.DownUp(HostLeafLink(0, 1),
			simtime.Time(0).Add(100*simtime.Microsecond),
			simtime.Time(0).Add(400*simtime.Microsecond))
		// leaf0-spine1 is cross-shard at K∈{2,4} (leaf 0 → shard 0,
		// spine 1 → shard 1); leaf3-spine0 is cross-shard at K=4.
		plan.Flap(LeafSpineLink(0, 1), 300*simtime.Microsecond, 150*simtime.Microsecond,
			simtime.Time(0).Add(2*simtime.Millisecond), seed)
		plan.Flap(LeafSpineLink(3, 0), 400*simtime.Microsecond, 100*simtime.Microsecond,
			simtime.Time(0).Add(2*simtime.Millisecond), seed+1)
		// A brownout on the cross-shard link: each end's rate halves, then
		// returns, on the shard owning that end.
		plan.Brownout(LeafSpineLink(0, 1), 0.5,
			simtime.Time(0).Add(50*simtime.Microsecond),
			simtime.Time(0).Add(250*simtime.Microsecond))

		want := runSequential(cfg, plan, horizon)
		if want.blackholed == 0 {
			t.Fatalf("seed %d: fault plan produced no losses — not exercising the fault path", seed)
		}
		for _, k := range []int{1, 2, 4} {
			cfg.Shards = k
			got := runSharded(cfg, plan, horizon)
			diffResults(t, labelKS(seed, k), want, got)
		}
	}
}
