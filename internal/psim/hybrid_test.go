package psim

import (
	"slices"
	"testing"

	"github.com/accnet/acc/internal/hybrid"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
	"github.com/accnet/acc/internal/topo"
)

// hybridPlan builds a workload that forces every fidelity transition the
// hybrid engine implements, at instants that land inside barrier windows:
// solo cross-leaf flows that stay analytic end-to-end, an incast wave that
// demotes the shared downlink mid-flight (converting an in-progress analytic
// flow to DCQCN with its exact remainder), a late flow that arrives after
// the hotspot drains (exercising promotion hysteresis), a TCP flow that
// registers ineligible, and one uplink flap that trips the ECMP-group
// demotion rule.
func hybridPlan(hostBW simtime.Rate) *Plan {
	p := NewPlan(hostBW)
	p.Flows = []FlowSpec{
		// Wave 1 (t=0): uncontended singles — and one into the future hotspot.
		{Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Size: 512 * simtime.KB},
		{Src: HostRef{2, 0}, Dst: HostRef{3, 0}, Size: 512 * simtime.KB},
		{Src: HostRef{3, 1}, Dst: HostRef{0, 1}, Size: 512 * simtime.KB},
		// Wave 2 (t=20us): incast on host (1,0) while flow 0 is mid-flight.
		{Src: HostRef{2, 1}, Dst: HostRef{1, 0}, Size: 256 * simtime.KB, Start: simtime.Time(20 * simtime.Microsecond)},
		{Src: HostRef{3, 0}, Dst: HostRef{1, 0}, Size: 256 * simtime.KB, Start: simtime.Time(20 * simtime.Microsecond)},
		// Wave 3 (t=900us): after the incast drains; analytic again iff the
		// hotspot links have promoted — identical either way across layouts.
		{Src: HostRef{0, 1}, Dst: HostRef{1, 0}, Size: 256 * simtime.KB, Start: simtime.Time(900 * simtime.Microsecond)},
		// Ineligible transport: packet-level from the start, demand reserved.
		{Src: HostRef{1, 1}, Dst: HostRef{2, 0}, Size: 128 * simtime.KB, Transport: TransportTCP},
	}
	// A leaf-2 uplink flap: any member flip re-hashes the group, so the
	// hybrid engine must demote all of leaf 2's uplinks at the next barrier.
	p.DownUp(LeafSpineLink(2, 0),
		simtime.Time(200*simtime.Microsecond), simtime.Time(400*simtime.Microsecond))
	return p
}

// hybridRun executes the plan at the given shard count and returns the
// Applied results, the engine stats, and a flat per-port counter snapshot.
func hybridRun(t *testing.T, shards int, horizon simtime.Time) (*Applied, *hybrid.Engine, []uint64) {
	t.Helper()
	cfg := Config{NLeaf: 4, HostsPerLeaf: 2, NSpine: 2, Shards: shards, Seed: 1, Topo: topo.DefaultConfig()}
	e := Build(cfg)
	res, eng := e.ApplyHybrid(hybridPlan(cfg.Topo.HostBW), hybrid.DefaultConfig())
	e.Run(horizon)

	var counters []uint64
	snap := func(rows [][]*netsim.Port) {
		for _, row := range rows {
			for _, p := range row {
				counters = append(counters, p.DeliveredBytes(), p.AnalyticTxBytes, uint64(p.Fidelity()))
			}
		}
	}
	snap(e.HostUp)
	snap(e.LeafDown)
	snap(e.LeafUp)
	snap(e.SpineDown)
	return res, eng, counters
}

// TestHybridLayoutIdentity is the tentpole's shard-safety contract at the
// engine level: a hybrid-fidelity plan — demotions mid-flight, an ECMP-group
// fault, promotions, mixed transports — completes bit-identically on 1, 2,
// and 4 shards: same per-flow completion instants, same fidelity accounting,
// same per-port byte counters.
func TestHybridLayoutIdentity(t *testing.T) {
	horizon := simtime.Time(2 * simtime.Millisecond)
	ref, refEng, refCounters := hybridRun(t, 1, horizon)

	if got := ref.DoneCount(); got != len(ref.Plan.Flows) {
		t.Fatalf("reference run completed %d/%d flows: %v", got, len(ref.Plan.Flows), ref.End)
	}
	st := refEng.Stats
	if st.Demotions == 0 {
		t.Fatalf("incast never demoted a link; stats %+v", st)
	}
	if st.Promotions == 0 {
		t.Fatalf("hotspot never promoted back after draining; stats %+v", st)
	}
	if st.AnalyticFlows == 0 || st.PacketFlows == 0 {
		t.Fatalf("plan should split between modes; stats %+v", st)
	}

	for _, k := range []int{2, 4} {
		res, eng, counters := hybridRun(t, k, horizon)
		for i, end := range res.End {
			if end != ref.End[i] {
				t.Errorf("shards=%d flow %d: End %v != sequential %v", k, i, end, ref.End[i])
			}
		}
		if eng.Stats != st {
			t.Errorf("shards=%d fidelity stats diverged: %+v != %+v", k, eng.Stats, st)
		}
		if len(counters) != len(refCounters) {
			t.Fatalf("shards=%d snapshot size %d != %d", k, len(counters), len(refCounters))
		}
		for i := range counters {
			if counters[i] != refCounters[i] {
				t.Errorf("shards=%d port counter %d diverged: %d != %d", k, i, counters[i], refCounters[i])
			}
		}
	}
}

// TestHybridBarrierQuantization pins ApplyHybrid's documented start
// semantics: a spec due strictly inside a window starts at the next barrier,
// so its analytic Start — and therefore its closed-form End — sits on the
// quantized instant in every layout.
func TestHybridBarrierQuantization(t *testing.T) {
	runOne := func(start simtime.Time) simtime.Time {
		cfg := Config{NLeaf: 2, HostsPerLeaf: 2, NSpine: 2, Shards: 1, Seed: 1, Topo: topo.DefaultConfig()}
		e := Build(cfg)
		p := NewPlan(cfg.Topo.HostBW)
		p.Flows = []FlowSpec{
			{Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Size: 64 * simtime.KB, Start: start},
		}
		res, eng := e.ApplyHybrid(p, hybrid.DefaultConfig())
		e.Run(simtime.Time(1 * simtime.Millisecond))
		if res.End[0] == 0 {
			t.Fatalf("flow starting at %v never completed", start)
		}
		if eng.Stats.AnalyticFlows != 1 || eng.Stats.PacketFlows != 0 {
			t.Fatalf("solo flow should complete analytically: %+v", eng.Stats)
		}
		return res.End[0]
	}

	window := topo.DefaultConfig().FabDelay
	base := runOne(0)
	// Due strictly inside window 2 → starts at barrier 2. The closed form is
	// shift-invariant on an idle path, so End must move by exactly two whole
	// windows; an unquantized anchor would shift it by the fractional offset.
	mid := simtime.Time(window) + simtime.Time(window)/3
	if got, want := runOne(mid), base.Add(2*window); got != want {
		t.Fatalf("quantized End %v, want %v (t=0 End %v + 2 windows)", got, want, base)
	}
}

// TestHybridRestoreRejectsBadPending: the not-yet-started plan indices in a
// hybrid image are data, and an image with a valid checksum can still carry
// any integers there. Restore must take ascending in-range indices — what
// state saves — and answer anything else with an error, not index the
// plan with it or start a flow twice.
func TestHybridRestoreRejectsBadPending(t *testing.T) {
	cfg := Config{NLeaf: 4, HostsPerLeaf: 2, NSpine: 2, Shards: 1, Seed: 1, Topo: topo.DefaultConfig()}
	build := func() *HybridState {
		res, _ := Build(cfg).ApplyHybrid(hybridPlan(cfg.Topo.HostBW), hybrid.DefaultConfig())
		return res.Hybrid
	}
	// image is HybridState.state's layout around an arbitrary index list.
	image := func(pending ...int) *codec.Reader {
		h := build()
		w := codec.NewWriter()
		w.Tag("psim-hybrid")
		h.Eng.State(codec.Save(w), nil)
		w.Int(len(pending))
		for _, i := range pending {
			w.Int(i)
		}
		for range h.hflows {
			w.Bool(false)
			w.Bool(false)
		}
		r, err := codec.NewReader(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	h := build()
	r := image(3, 4, 5)
	if h.state(codec.Load(r)); r.Err() != nil {
		t.Fatalf("the indices a fresh instantiation saves were refused: %v", r.Err())
	}
	if want := []int{3, 4, 5}; !slices.Equal(h.pending[h.next:], want) {
		t.Fatalf("restored pending %v, want %v", h.pending[h.next:], want)
	}
	n := len(h.p.Flows)
	for _, bad := range [][]int{{n}, {3, n + 100}, {-1}, {-5, 3}, {4, 4}, {5, 3}, {3, 4, 3}} {
		r := image(bad...)
		if build().state(codec.Load(r)); r.Err() == nil {
			t.Fatalf("pending %v restored without an error", bad)
		}
	}
}

// TestHybridStartOrder: the plan need not be sorted by Start. Every spec
// starts at the first barrier at or after its Start, specs that share a
// barrier start in plan order, and the image lists the waiting ones in
// ascending index whatever order the cursor holds them in.
func TestHybridStartOrder(t *testing.T) {
	cfg := Config{NLeaf: 4, HostsPerLeaf: 4, NSpine: 2, Shards: 1, Seed: 1, Topo: topo.DefaultConfig()}
	us := func(n int) simtime.Time { return simtime.Time(simtime.Duration(n) * simtime.Microsecond) }
	starts := []simtime.Time{us(30), us(10), 0, us(10), us(30), us(5), us(10), us(20)}
	p := NewPlan(cfg.Topo.HostBW)
	for i, at := range starts {
		p.Flows = append(p.Flows, FlowSpec{Src: HostRef{i % 4, i / 4}, Dst: HostRef{(i + 1) % 4, 2 + i/4}, Size: 4 * simtime.KB, Start: at})
	}
	type started struct {
		i  int
		at simtime.Time
	}
	var got []started
	p.OnStart = func(i int, at simtime.Time) { got = append(got, started{i, at}) }
	e := Build(cfg)
	res, _ := e.ApplyHybrid(p, hybrid.DefaultConfig())

	e.Run(us(15))
	w := codec.NewWriter()
	res.Hybrid.state(codec.Save(w))
	h := res.Hybrid
	if waiting, want := h.pending[h.next:], []int{7, 0, 4}; !slices.Equal(waiting, want) {
		t.Fatalf("waiting at 15us in cursor order: %v, want %v", waiting, want)
	}
	r, err := codec.NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if h.state(codec.Load(r)); r.Err() != nil {
		t.Fatalf("restore of its own image: %v", r.Err())
	}
	if waiting, want := h.pending[h.next:], []int{7, 0, 4}; !slices.Equal(waiting, want) {
		t.Fatalf("waiting after the restore: %v, want %v", waiting, want)
	}
	e.Run(us(40))

	barrier := func(at simtime.Time) simtime.Time {
		w := simtime.Time(e.Window)
		return (at + w - 1) / w * w
	}
	var want []started
	for _, i := range []int{2, 5, 1, 3, 6, 7, 0, 4} {
		want = append(want, started{i, barrier(starts[i])})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("starts %v, want %v", got, want)
	}
}
