package psim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
	"github.com/accnet/acc/internal/tcp"
	"github.com/accnet/acc/internal/topo"
)

// applyByAt is the reference applier on a sequential fabric: two closure
// events per flow made up front with At, in plan order (receiver, then
// sender), then the faults. The start cursors must start every flow half
// exactly where these fire.
func applyByAt(p *Plan, fab *topo.Fabric) *Applied {
	n := len(p.Flows)
	a := &Applied{
		Plan:      p,
		DCQCNSend: make([]*dcqcn.Flow, n),
		DCQCNRecv: make([]*dcqcn.Receiver, n),
		TCPSend:   make([]*tcp.Flow, n),
		TCPRecv:   make([]*tcp.Receiver, n),
		End:       make([]simtime.Time, n),
	}
	q := fab.Net.Q
	fab.Net.DeclareFlowIDs(netsim.FlowID(n))
	for i, fs := range p.Flows {
		id := netsim.FlowID(i + 1)
		src, dst := fab.HostsAt[fs.Src.Leaf][fs.Src.Host], fab.HostsAt[fs.Dst.Leaf][fs.Dst.Host]
		switch fs.Transport {
		case TransportDCQCN:
			q.At(fs.Start, func() {
				a.DCQCNRecv[i] = dcqcn.StartReceiver(id, src.ID(), dst, fs.Size, p.DCQCN, func(r *dcqcn.Receiver) { a.End[i] = r.End })
			})
			q.At(fs.Start, func() { a.DCQCNSend[i] = dcqcn.StartSender(fab.Net, id, src, dst.ID(), fs.Size, p.DCQCN) })
		case TransportTCP:
			q.At(fs.Start, func() {
				a.TCPRecv[i] = tcp.StartReceiver(id, src.ID(), dst, fs.Size, p.TCP, func(r *tcp.Receiver) { a.End[i] = r.End })
			})
			q.At(fs.Start, func() { a.TCPSend[i] = tcp.StartSender(fab.Net, id, src, dst.ID(), fs.Size, p.TCP) })
		}
	}
	if _, err := fabricLinks(fab).schedule(p.Faults, fab.Net.Now()); err != nil {
		panic(err)
	}
	return a
}

// TestStartOrderUnderTies: with 40 % of a plan's flows, both transports,
// starting at one instant — where fault ends on the tied senders' links
// also fall — the start cursors fire every half where up-front At calls
// did: per-flow ends, switch counters, goodput and the event total equal
// the At-applied sequential run, on the sequential engine and at K ∈
// {1, 2, 4}.
func TestStartOrderUnderTies(t *testing.T) {
	const nLeaf, hostsPerLeaf, nSpine, flows = 4, 3, 2, 60
	horizon := simtime.Time(2 * simtime.Millisecond)
	tie := simtime.Time(100 * simtime.Microsecond)
	for _, seed := range []int64{2, 5, 8} {
		cfg := testConfig(nLeaf, hostsPerLeaf, nSpine, 1, seed)
		plan := NewPlan(cfg.Topo.HostBW).
			RandomFlows(nLeaf, hostsPerLeaf, flows, 32<<10, 300*simtime.Microsecond, true, seed)
		rng := rand.New(rand.NewSource(seed))
		for k, i := range rng.Perm(flows)[:flows*2/5] {
			fs := &plan.Flows[i]
			fs.Start = tie
			if k < 3 {
				plan.Brownout(HostLeafLink(fs.Src.Leaf, fs.Src.Host), 0.5, tie, tie.Add(50*simtime.Microsecond))
			}
		}

		want := runSequentialWith(cfg, horizon, func(fab *topo.Fabric) *Applied { return applyByAt(plan, fab) })
		for i, end := range want.ends {
			if end == 0 {
				t.Fatalf("seed %d: flow %d did not complete by the horizon — nothing to compare", seed, i)
			}
		}
		diffResults(t, fmt.Sprintf("seed %d sequential", seed), want, runSequential(cfg, plan, horizon))
		for _, k := range []int{1, 2, 4} {
			cfg.Shards = k
			diffResults(t, labelKS(seed, k), want, runSharded(cfg, plan, horizon))
		}
	}
}

// TestRestoreAtStartInstant snapshots at a barrier where a DCQCN and a TCP
// flow start, their senders on one queue and the DCQCN flow's receiver on
// another shard at K = 4, and where a fault end falls too. RunBefore stops
// short of all three, so the restored cursors must start both flows at the
// barrier and the fault handle must fire there: restore-then-run equals the
// uninterrupted run at K ∈ {1, 4}.
func TestRestoreAtStartInstant(t *testing.T) {
	base := testConfig(4, 2, 2, 1, 3)
	barrier := simtime.Time(40 * Build(base).Window)
	horizon := barrier.Add(2 * simtime.Millisecond)
	plan := NewPlan(base.Topo.HostBW).RandomFlows(4, 2, 12, 64<<10, simtime.Duration(barrier), true, 3)
	plan.Flows = append(plan.Flows,
		FlowSpec{Src: HostRef{0, 0}, Dst: HostRef{3, 1}, Size: 128 << 10, Start: barrier},
		FlowSpec{Src: HostRef{0, 1}, Dst: HostRef{1, 0}, Size: 128 << 10, Start: barrier, Transport: TransportTCP})
	plan.Brownout(HostLeafLink(0, 0), 0.5, barrier, barrier.Add(100*simtime.Microsecond))

	want := runSharded(base, plan, horizon)
	for _, i := range []int{len(plan.Flows) - 2, len(plan.Flows) - 1} {
		if want.ends[i] <= barrier {
			t.Fatalf("flow %d starting at the barrier ended at %v", i, want.ends[i])
		}
	}
	for _, k := range []int{1, 4} {
		cfg := base
		cfg.Shards = k
		e := Build(cfg)
		app := e.Apply(plan)
		smp := NewSampler(e.HostPorts(), samplePeriod)
		e.OnBarrier(smp.OnBarrier)
		if e.Run(barrier); e.Now() != barrier {
			t.Fatalf("K=%d: engine stopped at %v, not the barrier %v", k, e.Now(), barrier)
		}
		w := codec.NewWriter()
		v := codec.Save(w)
		e.State(v)
		app.State(v, e)
		smp.State(v)

		r, err := codec.NewReader(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		e = Build(cfg)
		app = e.Apply(plan)
		smp = NewSampler(e.HostPorts(), samplePeriod)
		e.OnBarrier(smp.OnBarrier)
		v = codec.Load(r)
		e.State(v)
		app.RestorePending()
		app.State(v, e)
		if smp.State(v); r.Err() != nil {
			t.Fatalf("K=%d: restore: %v", k, r.Err())
		}
		e.Run(horizon)
		marks, drops := e.SwitchTotals()
		diffResults(t, labelKS(3, k)+" restored at a start instant", want, result(app, e.Losses(), marks, drops, smp, e.Processed()))
	}
}

// TestApplyRefusesPastStart: a start before the apply instant panics at
// Apply, as the At call the start cursors replaced did.
func TestApplyRefusesPastStart(t *testing.T) {
	cfg := testConfig(2, 2, 1, 2, 1)
	e := Build(cfg)
	e.Run(simtime.Time(10 * e.Window))
	p := NewPlan(cfg.Topo.HostBW)
	p.Flows = []FlowSpec{
		{Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Size: 1 << 10, Start: e.Now()},
		{Src: HostRef{1, 1}, Dst: HostRef{0, 1}, Size: 1 << 10, Start: e.Now() - 1},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Apply accepted a start before the apply instant")
		}
	}()
	e.Apply(p)
}

// TestStartLayoutOrder: each queue's list in a start layout holds exactly
// its halves, by (Start, plan order).
func TestStartLayoutOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := &Plan{}
	for i := 0; i < 500; i++ {
		start := simtime.Time(rng.Intn(20)) * simtime.Time(simtime.Microsecond) // many ties
		p.Flows = append(p.Flows, FlowSpec{Src: HostRef{rng.Intn(3), rng.Intn(2)}, Dst: HostRef{rng.Intn(3), rng.Intn(2)}, Start: start})
	}
	key := []int32{1, 1, 2, 2, 3, 3} // a queue per leaf
	l := p.layout(key, 2, 3)
	for k, got := range l.ents {
		var want []uint32
		for i, fs := range p.Flows {
			for half, r := range [2]HostRef{fs.Dst, fs.Src} {
				if r.Leaf == k {
					want = append(want, uint32(i<<1|half))
				}
			}
		}
		sort.Slice(want, func(a, b int) bool {
			sa, sb := p.Flows[want[a]>>1].Start, p.Flows[want[b]>>1].Start
			return sa < sb || sa == sb && want[a] < want[b]
		})
		if !slices.Equal(got, want) {
			t.Fatalf("queue %d: halves in the order %v, want %v", k, got, want)
		}
	}
}

// TestStartLayoutShared: applications of one plan to engines of one shard
// count read one start layout; another shard count lays the plan out anew.
func TestStartLayoutShared(t *testing.T) {
	plan := NewPlan(testConfig(4, 2, 2, 1, 1).Topo.HostBW).RandomFlows(4, 2, 40, 32<<10, 100*simtime.Microsecond, true, 1)
	apply := func(shards int) *Applied { return Build(testConfig(4, 2, 2, shards, 1)).Apply(plan) }
	// first returns the backing of the layout's lists: one array per layout.
	first := func(a *Applied) *uint32 { return &a.armed.starts[0].ents[:1][0] }
	one, two := apply(2), apply(2)
	if first(one) != first(two) {
		t.Error("two 2-shard applications laid the plan out twice")
	}
	if four := apply(4); first(four) == first(one) {
		t.Error("a 4-shard application read the 2-shard layout")
	}
}
