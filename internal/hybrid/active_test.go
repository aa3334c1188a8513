package hybrid

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// The fill and the near-saturation trigger walk only the links that carry an
// analytic flow (Engine.active). These tests hold that against the walk of
// every link it replaced, which lives on here as the oracle, and pin the set
// to its definition.

// waterfillAllLinks is waterfill as it was before the active set: every
// round resets and re-walks every registered link.
func (e *Engine) waterfillAllLinks() {
	for _, l := range e.links {
		l.avail = float64(l.Cap) - float64(l.reserved)
		if l.avail < 0 {
			l.avail = 0
		}
		l.nUn = len(l.flows)
	}
	unfrozen := 0
	for _, f := range e.flows {
		f.share = 0
		f.frozen = false
		unfrozen++
	}
	for unfrozen > 0 {
		inc := math.Inf(1)
		for _, l := range e.links {
			if l.nUn > 0 {
				if v := l.avail / float64(l.nUn); v < inc {
					inc = v
				}
			}
		}
		for _, f := range e.flows {
			if !f.frozen {
				if v := float64(f.Demand) - f.share; v < inc {
					inc = v
				}
			}
		}
		if inc < 0 {
			inc = 0
		}
		for _, f := range e.flows {
			if !f.frozen {
				f.share += inc
			}
		}
		froze := 0
		for _, f := range e.flows {
			if f.frozen {
				continue
			}
			sat := f.share >= float64(f.Demand)*(1-1e-12)
			if !sat {
				for _, l := range f.Path {
					if l.avail-inc*float64(l.nUn) <= 1e-9*float64(l.Cap) {
						sat = true
						break
					}
				}
			}
			if sat {
				f.frozen = true
				froze++
			}
		}
		for _, l := range e.links {
			if l.nUn == 0 {
				continue
			}
			l.avail -= inc * float64(l.nUn)
			if l.avail < 0 {
				l.avail = 0
			}
			n := 0
			for _, f := range l.flows {
				if !f.frozen {
					n++
				}
			}
			l.nUn = n
		}
		unfrozen -= froze
		if froze == 0 {
			for _, f := range e.flows {
				f.frozen = true
			}
			unfrozen = 0
		}
	}
}

// fluidTriggersAllLinks is applyFluidTriggers as it was before the active
// set: the near-saturation pass scans every registered link.
func (e *Engine) fluidTriggersAllLinks(now simtime.Time) bool {
	changed := false
	for _, l := range e.links {
		if l.hot || len(l.flows) == 0 {
			continue
		}
		if len(l.flows)+l.nPacket >= 2 && l.fluidShare()+float64(l.reserved) >= e.Cfg.DemoteUtil*float64(l.Cap) {
			e.demoteLink(l, now)
			changed = true
		}
	}
	if changed {
		return true
	}
	for _, f := range e.flows {
		if f.share >= float64(f.Demand)*(1-1e-9) {
			continue
		}
		for _, l := range f.Path {
			if l.avail <= 1e-9*float64(l.Cap) {
				e.demoteLink(l, now)
				changed = true
			}
		}
		if f.Mode == ModeAnalytic {
			e.demoteLink(f.Path[0], now)
			changed = true
		}
		return true
	}
	return changed
}

// startFlowAllLinks is StartFlow on a barrier-driven engine with the fill
// and the triggers taken from the oracle.
func (e *Engine) startFlowAllLinks(path []*Link, o FlowOpts, startPacket func(*Flow, int64), onDone func(*Flow, simtime.Time)) *Flow {
	now := e.clock()
	f := e.admit(now, path, o, startPacket, onDone)
	for {
		e.waterfillAllLinks()
		if !e.fluidTriggersAllLinks(now) {
			break
		}
	}
	if f.Mode == ModeAnalytic {
		f.End = e.endTime(f)
	}
	return f
}

// churnEvent is one callback the engine made: a conversion to packet level
// with the bytes handed over, or an analytic completion with its instant.
type churnEvent struct {
	id     uint64
	packet bool
	v      int64
}

// churnRig is a visitRig that logs what its engine does and keeps the
// packet-mode flows it was handed, to release them later.
type churnRig struct {
	*visitRig
	tr     *obs.Tracer
	log    []churnEvent
	packet []*Flow
	pool   []*netsim.Host // the hosts a churn script draws endpoints from
}

func newChurnRig(t *testing.T, nLeaf, hosts, nSpine int) *churnRig {
	r := &churnRig{visitRig: newVisitRig(t, DefaultConfig(), nLeaf, hosts, nSpine), tr: obs.NewTracer(1 << 16)}
	r.e.tracer = r.tr
	return r
}

func (r *churnRig) startPacket(f *Flow, remaining int64) {
	r.log = append(r.log, churnEvent{f.ID, true, remaining})
	r.packet = append(r.packet, f)
}

func (r *churnRig) onDone(f *Flow, end simtime.Time) {
	r.log = append(r.log, churnEvent{f.ID, false, int64(end)})
}

// restoreInPlace saves the engine and overlays the image onto it.
func (r *churnRig) restoreInPlace(t *testing.T) {
	t.Helper()
	w := codec.NewWriter()
	r.e.State(codec.Save(w), nil)
	rd, err := codec.NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	r.e.State(codec.Load(rd), func(uint64) (func(*Flow, int64), func(*Flow, simtime.Time)) {
		return r.startPacket, r.onDone
	})
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
}

// checkDerived holds the per-link state derived from the flow lists to its
// definition: the active set is {l : len(l.flows) > 0} and sumRate is the
// demand of exactly those flows. It returns the size of the active set.
func checkDerived(t *testing.T, e *Engine, when string) int {
	t.Helper()
	n := 0
	for _, w := range e.active {
		n += bits.OnesCount64(w)
	}
	for _, l := range e.links {
		if in := e.active[l.idx>>6]>>(l.idx&63)&1 == 1; in != (len(l.flows) > 0) {
			t.Fatalf("%s: link %d carries %d analytic flows, in the active set: %v", when, l.idx, len(l.flows), in)
		}
		var sum simtime.Rate
		for _, f := range l.flows {
			sum += f.Demand
		}
		if l.sumRate != sum {
			t.Fatalf("%s: link %d sumRate %v, its %d flows demand %v", when, l.idx, l.sumRate, len(l.flows), sum)
		}
	}
	return n
}

// sameLinks holds two engines over twin meshes to the same trigger and load
// state on every link.
func sameLinks(t *testing.T, a, b *Engine, aName, bName string) {
	t.Helper()
	for i, l := range a.links {
		m := b.links[i]
		if l.hot != m.hot || l.cold != m.cold || l.sumRate != m.sumRate || l.reserved != m.reserved || l.nPacket != m.nPacket || len(l.flows) != len(m.flows) {
			t.Fatalf("link %d differs:\n %s %+v\n %s %+v", i, aName, *l, bName, *m)
		}
	}
}

// churnOp is one step of the randomized script, drawn once and applied to
// every rig.
type churnOp struct {
	kind     int // 0 start, 1 ticks, 2 release up to three packet flows, 3 pause frame, 4 save and restore
	src, dst int // pool indices
	opts     FlowOpts
	n        int
}

// TestActiveSetEqualsAllLinksScan drives twin engines over twin 1 056-link
// meshes through the same randomized admissions, completions, observed
// demotions, reservation releases and restores. One fills and triggers over
// the active set, the other over every link (the code above). Shares and
// link budgets must agree bit for bit and demotions, conversions and
// completions must come in the same order with the same values. Flows are
// drawn from ten hosts, so a few dozen links are active, admissions collide,
// and one fill often finds more than one link at the trigger — the case
// that tells an ascending walk from any other.
func TestActiveSetEqualsAllLinksScan(t *testing.T) {
	set, all := newChurnRig(t, 12, 40, 4), newChurnRig(t, 12, 40, 4)
	links := len(set.e.links)
	if links < 1000 {
		t.Fatalf("%d links, want at least 1000", links)
	}
	for _, r := range []*churnRig{set, all} {
		for leaf := 0; leaf < 3; leaf++ {
			r.pool = append(r.pool, r.fab.HostsAt[leaf][:3]...)
		}
		r.pool = append(r.pool, r.fab.HostsAt[0][3])
	}
	line := set.fab.Hosts[0].Port.Bandwidth

	rng := rand.New(rand.NewSource(1))
	draw := func() churnOp {
		switch p := rng.Intn(100); {
		case p < 35:
			op := churnOp{kind: 0, src: rng.Intn(10)}
			op.dst = (op.src + 1 + rng.Intn(9)) % 10
			op.opts = FlowOpts{
				Size:     int64(1 + rng.Intn(200*simtime.KB)),
				Demand:   line / simtime.Rate(int(1)<<rng.Intn(5)),
				Prio:     3,
				Eligible: rng.Intn(10) > 0,
			}
			return op
		case p < 65:
			return churnOp{kind: 1, n: 1 + rng.Intn(30)}
		case p < 93:
			return churnOp{kind: 2, n: rng.Int()}
		case p < 98:
			return churnOp{kind: 3, src: rng.Intn(10)}
		default:
			return churnOp{kind: 4}
		}
	}
	apply := func(r *churnRig, op churnOp) {
		switch op.kind {
		case 0:
			src, dst := r.pool[op.src], r.pool[op.dst]
			id := r.net.NextFlowID()
			op.opts.ID = uint64(id)
			start := r.e.StartFlow
			if r == all {
				start = r.e.startFlowAllLinks
			}
			start(r.m.Path(id, src, dst), op.opts, r.startPacket, r.onDone)
		case 1:
			for i := 0; i < op.n; i++ {
				r.tick()
			}
		case 2:
			for k := op.n % 3; k >= 0 && len(r.packet) > 0; k-- {
				i := op.n % len(r.packet)
				r.e.PacketDone(r.packet[i])
				r.packet = append(r.packet[:i], r.packet[i+1:]...)
			}
		case 3:
			r.pause(r.pool[op.src], netsim.KindPause)
			r.pause(r.pool[op.src], netsim.KindResume)
		case 4:
			r.restoreInPlace(t)
		}
	}

	maxActive, multi, traced := 0, 0, uint64(0)
	for step := 0; step < 3000; step++ {
		op := draw()
		demoted := set.e.Stats.Demotions
		apply(set, op)
		apply(all, op)
		if op.kind == 0 && set.e.Stats.Demotions >= demoted+2 {
			multi++
		}
		maxActive = max(maxActive, checkDerived(t, set.e, fmt.Sprintf("step %d", step)))

		if set.e.Stats != all.e.Stats {
			t.Fatalf("step %d: stats differ\n active set %+v\n all links  %+v", step, set.e.Stats, all.e.Stats)
		}
		if len(set.log) != len(all.log) {
			t.Fatalf("step %d: %d callbacks over the active set, %d over all links", step, len(set.log), len(all.log))
		}
		for i := range set.log {
			if set.log[i] != all.log[i] {
				t.Fatalf("step %d: callback %d is %+v over the active set, %+v over all links", step, i, set.log[i], all.log[i])
			}
		}
		set.log, all.log = set.log[:0], all.log[:0]
		if set.tr.Emitted() != all.tr.Emitted() {
			t.Fatalf("step %d: %d demotions and promotions over the active set, %d over all links", step, set.tr.Emitted(), all.tr.Emitted())
		}
		fresh := int(set.tr.Emitted() - traced)
		traced += uint64(fresh)
		if fresh > 0 {
			a, b := set.tr.Last(fresh), all.tr.Last(fresh)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("step %d: fidelity record %d is %+v over the active set, %+v over all links", step, i, a[i], b[i])
				}
			}
		}

		// The same problem through both fills: every share, and the budget
		// left on every link a flow can read it from.
		set.e.waterfill()
		all.e.waterfillAllLinks()
		if len(set.e.flows) != len(all.e.flows) {
			t.Fatalf("step %d: %d analytic flows over the active set, %d over all links", step, len(set.e.flows), len(all.e.flows))
		}
		for i, f := range set.e.flows {
			g := all.e.flows[i]
			if f.ID != g.ID || math.Float64bits(f.share) != math.Float64bits(g.share) {
				t.Fatalf("step %d: flow %d share %v over the active set, flow %d share %v over all links", step, f.ID, f.share, g.ID, g.share)
			}
		}
		sameLinks(t, set.e, all.e, "over the active set", "over all links")
		for i, l := range set.e.links {
			if m := all.e.links[i]; len(l.flows) > 0 && math.Float64bits(l.avail) != math.Float64bits(m.avail) {
				t.Fatalf("step %d: link %d has %v left over the active set, %v over all links", step, i, l.avail, m.avail)
			}
		}
	}

	st := set.e.Stats
	if st.Demotions < 50 || st.Promotions < 20 || st.AnalyticFlows < 100 || st.PacketFlows < 100 || multi < 10 {
		t.Fatalf("churn exercises too little: %+v, %d admissions demoted two or more links", st, multi)
	}
	if maxActive == 0 || maxActive*20 > links {
		t.Fatalf("up to %d of %d links active, want some and at most 5%%", maxActive, links)
	}
}

// TestPacedOutFlowDetachesOnce: a demotion that finds a flow's sender fully
// paced out detaches the flow and leaves it to complete analytically at its
// End, where complete detaches it again. The second detach must debit
// nothing: every link's sumRate stays the demand of the flows it lists, and
// a run restored after the demotion or after the completion — the restore
// recomputes sumRate from the live flows — matches the uninterrupted one at
// every tick, through the promotion that reads sumRate.
func TestPacedOutFlowDetachesOnce(t *testing.T) {
	// run returns the ticks of the demotion and of the completion, and the
	// link and accounting state after every tick.
	run := func(restoreAt int) (demoted, completed int, states []string) {
		r := newChurnRig(t, 2, 2, 2)
		src, dst := r.fab.HostsAt[0][0], r.fab.HostsAt[1][0]
		id := r.net.NextFlowID()
		f := r.e.StartFlow(r.m.Path(id, src, dst), FlowOpts{ID: uint64(id), Size: 3000, Prio: 3, Eligible: true}, r.startPacket, r.onDone)
		sendEnd, end := f.sendEnd, f.End
		for k := 1; k <= 20; k++ {
			if demoted == 0 && r.now.Add(600*simtime.Nanosecond) >= sendEnd {
				// The next tick finds the last frame handed to the NIC and
				// most of the path still ahead of it.
				r.pause(src, netsim.KindPause)
				r.pause(src, netsim.KindResume)
				demoted = k
			}
			r.tick()
			if k == demoted && (len(r.e.inflight) != 1 || r.e.AnalyticFlows() != 0 || !r.m.up[0].Hot() || r.now >= end) {
				t.Fatalf("tick %d at %v: %d in flight, %d analytic, NIC hot %v, End %v; want the paced-out flow in flight on a demoted path",
					k, r.now, len(r.e.inflight), r.e.AnalyticFlows(), r.m.up[0].Hot(), end)
			}
			if completed == 0 && len(r.log) == 1 {
				completed = k
			}
			if k == restoreAt {
				r.restoreInPlace(t)
			}
			checkDerived(t, r.e, fmt.Sprintf("tick %d", k))
			state := fmt.Sprintf("%+v", r.e.Stats)
			for _, l := range r.e.links {
				state += fmt.Sprintf(" %v/%d/%v/%v", l.hot, l.cold, l.sumRate, l.reserved)
			}
			states = append(states, state)
		}
		if demoted == 0 || completed <= demoted || len(r.log) != 1 || r.log[0] != (churnEvent{uint64(id), false, int64(end)}) {
			t.Fatalf("demoted at tick %d, completed at tick %d, callbacks %+v; want one analytic completion at %v", demoted, completed, r.log, end)
		}
		if r.e.Stats.AnalyticFlows != 1 || r.e.Stats.PacketFlows != 0 || r.e.Stats.Promotions != 1 {
			t.Fatalf("stats %+v, want one analytic flow and the NIC promoted again", r.e.Stats)
		}
		return demoted, completed, states
	}
	demoted, completed, want := run(0)
	for _, at := range []int{demoted, completed} {
		_, _, got := run(at)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("restored at tick %d, tick %d:\n restored      %s\n uninterrupted %s", at, k+1, got[k], want[k])
			}
		}
	}
}
