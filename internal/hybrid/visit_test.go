package hybrid

import (
	"math"
	"math/bits"
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
	"github.com/accnet/acc/internal/topo"
)

// visitRig is a leaf–spine fabric under a barrier-driven engine whose
// clock the test advances by hand. The first tick has run: it checked every
// link once and left the visit set empty.
type visitRig struct {
	net *netsim.Network
	fab *topo.Fabric
	e   *Engine
	m   *Mesh
	now simtime.Time
}

func newVisitRig(t *testing.T, cfg Config, nLeaf, hosts, nSpine int) *visitRig {
	t.Helper()
	r := &visitRig{net: netsim.New(1)}
	r.fab = topo.LeafSpine(r.net, nLeaf, hosts, nSpine, topo.DefaultConfig())
	r.e = NewBarrier(cfg, func() simtime.Time { return r.now }, nil)
	r.m = ForFabric(r.e, r.fab)
	if got := r.pending(); got != len(r.e.links) {
		t.Fatalf("%d of %d links marked at construction, want all", got, len(r.e.links))
	}
	r.tick()
	if r.e.LinkChecks != uint64(len(r.e.links)) {
		t.Fatalf("first tick made %d checks over %d links", r.e.LinkChecks, len(r.e.links))
	}
	return r
}

func (r *visitRig) tick() {
	r.now = r.now.Add(600 * simtime.Nanosecond)
	r.e.Tick(r.now)
}

// checks runs one tick and returns how many links it checked.
func (r *visitRig) checks() int {
	before := r.e.LinkChecks
	r.tick()
	return int(r.e.LinkChecks - before)
}

// pending drains netsim's touched lists and returns the visit set's size.
func (r *visitRig) pending() int {
	r.e.drain()
	n := 0
	for _, w := range r.e.visit {
		n += bits.OnesCount64(w)
	}
	return n
}

func (r *visitRig) marked(l *Link) bool {
	r.e.drain()
	return r.e.visit[l.idx>>6]>>(l.idx&63)&1 == 1
}

// pause delivers a PFC pause or resume frame for priority 3 to a host NIC.
func (r *visitRig) pause(h *netsim.Host, kind netsim.Kind) {
	pkt := r.net.AllocPacket()
	pkt.Kind, pkt.PausePrio = kind, 3
	h.Receive(pkt, h.Port)
}

// TestVisitCostPins: an idle mesh costs nothing after the check of every
// link that construction owes, a mesh with h hot links costs h per tick, and
// an admission beside k active links fills over those and its own path — at
// the benchmark's fabric size, where the deleted scans made 5 184 checks per
// tick and walked 5 184 links per fill.
func TestVisitCostPins(t *testing.T) {
	r := newVisitRig(t, DefaultConfig(), 24, 96, 12)
	links := len(r.e.Links())
	if links != 5184 {
		t.Fatalf("24x96x12 registers %d links, want 5184", links)
	}
	for i := 0; i < 1000; i++ {
		r.tick()
	}
	if r.e.LinkChecks > uint64(links) {
		t.Fatalf("1000 idle ticks made %d checks, want <= %d in total", r.e.LinkChecks, links)
	}

	// Keep h links hot: a pause frame per tick on each restarts their
	// hysteresis, the way a congested port keeps its link at packet level.
	const h = 7
	hot := r.fab.Hosts[:h]
	for round := 0; round < 3*r.e.Cfg.PromoteAfter; round++ {
		for _, host := range hot {
			r.pause(host, netsim.KindPause)
			r.pause(host, netsim.KindResume)
		}
		if got := r.checks(); got > h {
			t.Fatalf("tick with %d hot links made %d checks", h, got)
		}
	}
	if r.e.Stats.Demotions != h || r.e.Stats.Promotions != 0 {
		t.Fatalf("stats %+v, want %d demotions held hot", r.e.Stats, h)
	}
	// Left alone they promote after PromoteAfter quiet ticks and the cost
	// returns to zero.
	for i := 0; i < r.e.Cfg.PromoteAfter; i++ {
		if got := r.checks(); got != h {
			t.Fatalf("quiet tick %d made %d checks, want %d", i, got, h)
		}
	}
	if r.e.Stats.Promotions != h || r.checks() != 0 || r.pending() != 0 {
		t.Fatalf("after promotion: stats %+v, %d links still pending", r.e.Stats, r.pending())
	}

	// Ten cross-leaf flows on disjoint hosts, far below every trigger: each
	// admission is one fill, over the links active once it is registered.
	active := map[*Link]bool{}
	for i := 0; i < 10; i++ {
		id := r.net.NextFlowID()
		path := r.m.Path(id, r.fab.HostsAt[1][i], r.fab.HostsAt[2][i])
		for _, l := range path {
			active[l] = true
		}
		before := r.e.LinkFills
		r.e.StartFlow(path, FlowOpts{ID: uint64(id), Size: 1 << 30, Demand: simtime.Gbps, Prio: 3, Eligible: true}, noDemote(t), nil)
		if got := r.e.LinkFills - before; got != uint64(len(active)) {
			t.Fatalf("admission %d walked %d links with %d active", i, got, len(active))
		}
	}
	if len(active) < 20 || len(active) > 40 {
		t.Fatalf("%d links active under ten four-hop flows", len(active))
	}
}

// TestVisitPauseFrame: a pause frame on an idle watched port marks its link,
// and the next tick demotes it.
func TestVisitPauseFrame(t *testing.T) {
	r := newVisitRig(t, DefaultConfig(), 2, 2, 2)
	l := r.m.up[0]
	r.pause(r.fab.Hosts[0], netsim.KindPause)
	if !r.marked(l) || r.pending() != 1 {
		t.Fatalf("pause frame marked %d links (its own: %v), want exactly its own", r.pending(), r.marked(l))
	}
	if got := r.checks(); got != 1 || !l.Hot() || r.e.Stats.Demotions != 1 {
		t.Fatalf("tick made %d checks, hot=%v, stats %+v", got, l.Hot(), r.e.Stats)
	}
}

// TestVisitQueueDepth: an enqueue that leaves thr-1 bytes standing does not
// mark the link and one that leaves thr does, thr = ceil(QueueFrac*Kmin);
// checkLink's own float predicate then decides the same way.
func TestVisitQueueDepth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kmin = 4097 // QueueFrac*Kmin = 2048.5: depth 2048 is below it, 2049 at it
	thr := int(math.Ceil(cfg.QueueFrac * float64(cfg.Kmin)))
	r := newVisitRig(t, cfg, 2, 2, 2)
	src, dst := r.fab.Hosts[0], r.fab.Hosts[1]
	l := r.m.up[0]
	send := func(size int) {
		pkt := r.net.AllocPacket()
		pkt.Kind, pkt.Src, pkt.Dst, pkt.Size = netsim.KindData, src.ID(), dst.ID(), size
		src.Send(pkt)
	}
	send(64) // occupies the transmitter; everything after it stands in the queue
	send(thr - 1)
	if q := l.Port.Queues[0].Bytes(); q != thr-1 {
		t.Fatalf("queue holds %d bytes, want %d", q, thr-1)
	}
	if r.marked(l) {
		t.Fatalf("%d bytes standing marked the link, threshold is %d", thr-1, thr)
	}
	r.tick()
	if l.Hot() {
		t.Fatal("link demoted below the queue trigger")
	}
	send(1)
	if !r.marked(l) {
		t.Fatalf("%d bytes standing did not mark the link", thr)
	}
	if got := r.checks(); got != 1 || !l.Hot() {
		t.Fatalf("tick made %d checks, hot=%v; want the one link demoted", got, l.Hot())
	}
}

// TestVisitLinkState: SetDown marks both ends' links and SetEndDown one; a
// down-then-up inside one window marks the link but, as before, the tick
// sees no flip and demotes nothing.
func TestVisitLinkState(t *testing.T) {
	r := newVisitRig(t, DefaultConfig(), 2, 2, 2)
	up, down := r.m.uplinks[0][1], r.m.downlinks[1][0] // the two ends of leaf0 <-> spine1

	up.Port.SetDown(true)
	if !r.marked(up) || !r.marked(down) || r.pending() != 2 {
		t.Fatalf("SetDown marked %d links (up %v, down %v), want both ends", r.pending(), r.marked(up), r.marked(down))
	}
	r.tick()
	for _, gl := range r.m.uplinks[0] {
		if !gl.Hot() {
			t.Fatal("a member flip must demote the whole ECMP group")
		}
	}
	if !down.Hot() || r.m.uplinks[1][0].Hot() {
		t.Fatal("the far end demotes on its own down state; other groups stay analytic")
	}
	up.Port.SetDown(false)
	for i := 0; i <= r.e.Cfg.PromoteAfter; i++ {
		r.tick()
	}
	if r.pending() != 0 || r.e.Stats.Promotions != r.e.Stats.Demotions {
		t.Fatalf("links did not all promote after repair: stats %+v, %d pending", r.e.Stats, r.pending())
	}

	up.Port.SetEndDown(true)
	if !r.marked(up) || r.pending() != 1 {
		t.Fatalf("SetEndDown marked %d links, want this end only", r.pending())
	}
	up.Port.SetEndDown(false)
	demotions := r.e.Stats.Demotions
	if got := r.checks(); got != 1 || r.e.Stats.Demotions != demotions || r.pending() != 0 {
		t.Fatalf("down-then-up inside one window: %d checks, %d new demotions, %d pending; want 1, 0, 0",
			got, r.e.Stats.Demotions-demotions, r.pending())
	}
}

// TestVisitNonPositiveQueueTrigger: QueueFrac*Kmin <= 0 makes every depth,
// zero included, a queue symptom, so every link stays hot — and in the visit
// set — for good.
func TestVisitNonPositiveQueueTrigger(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kmin = 0
	r := newVisitRig(t, cfg, 2, 2, 2)
	links := len(r.e.links)
	for i := 0; i < 3*cfg.PromoteAfter; i++ {
		if got := r.checks(); got != links {
			t.Fatalf("tick %d checked %d of %d permanently hot links", i, got, links)
		}
	}
	for _, l := range r.e.links {
		if !l.Hot() {
			t.Fatal("a link left the hot set under a non-positive queue trigger")
		}
	}
	if r.e.Stats.Promotions != 0 {
		t.Fatalf("%d promotions, want none", r.e.Stats.Promotions)
	}
}

// TestBrownoutDemotesAndBlocks: SetBandwidth changes the rate under Cap and
// SerRate, which the fluid shares and closed-form ends were computed from.
// The flows crossing the link must demote at the next tick with the ledger
// conserved, admissions over it must be refused while the brownout lasts,
// and the link promotes once the nominal rate is back.
func TestBrownoutDemotesAndBlocks(t *testing.T) {
	r := newVisitRig(t, DefaultConfig(), 2, 2, 2)
	const size = 64 * simtime.MB
	handed := map[uint64]int64{}
	start := func(src, dst *netsim.Host) *Flow {
		id := r.net.NextFlowID()
		return r.e.StartFlow(r.m.Path(id, src, dst),
			FlowOpts{ID: uint64(id), Size: size, Prio: 3, Eligible: true},
			func(f *Flow, rem int64) { handed[f.ID] = rem }, nil)
	}
	hit := start(r.fab.HostsAt[0][0], r.fab.HostsAt[1][0])
	spared := start(r.fab.HostsAt[1][1], r.fab.HostsAt[0][1])
	for i := 0; i < 100; i++ {
		r.tick() // mid-flow: some frames committed, most not
	}
	if hit.Mode != ModeAnalytic || spared.Mode != ModeAnalytic || hit.AnalyticPayload() == 0 {
		t.Fatalf("flows not analytic mid-flight: %v/%v, %d committed", hit.Mode, spared.Mode, hit.AnalyticPayload())
	}

	l := hit.Path[0] // the sender NIC
	nominal := l.Port.Bandwidth
	l.Port.SetBandwidth(nominal / 4)
	if !r.marked(l) || r.pending() != 1 {
		t.Fatalf("SetBandwidth marked %d links, want the degraded one", r.pending())
	}
	r.tick()
	rem, ok := handed[hit.ID]
	if !ok || !l.Hot() {
		t.Fatalf("brownout did not demote: hot=%v handed=%v", l.Hot(), handed)
	}
	if hit.AnalyticPayload()+rem != size {
		t.Fatalf("conservation broken across the brownout demotion: %d + %d != %d", hit.AnalyticPayload(), rem, size)
	}
	if _, ok := handed[spared.ID]; ok || spared.Mode != ModeAnalytic {
		t.Fatal("a flow that does not cross the degraded link was demoted")
	}
	for i := 0; i < 2*r.e.Cfg.PromoteAfter; i++ {
		r.tick()
	}
	if !l.Hot() {
		t.Fatal("link promoted while still degraded")
	}
	late := start(r.fab.HostsAt[0][0], r.fab.HostsAt[1][1])
	if late.Mode != ModePacket || handed[late.ID] != size {
		t.Fatalf("admission over a degraded link: mode %v, handed %d", late.Mode, handed[late.ID])
	}

	l.Port.SetBandwidth(nominal)
	r.e.PacketDone(hit) // the packet transports finish and release their reservations
	r.e.PacketDone(late)
	promoted := false
	for i := 0; i < 2*r.e.Cfg.PromoteAfter && !promoted; i++ {
		r.tick()
		promoted = !l.Hot()
	}
	if !promoted {
		t.Fatalf("link did not promote after the rate was restored (util %.2f)", l.util())
	}
}

// TestVisitSeesQueuesFilledByThisTicksDemotions: a demotion starts packet
// transports, and their first frames are enqueued before the tick has
// checked the links after it. The scan of every link saw those queues at
// the same tick; the visit set must too, so demoteLink drains what it
// touched. Here a sibling uplink's fault demotes the ECMP group, the
// converted flow's transport parks a frame at the sender NIC, and the NIC's
// link has to be hot when this tick returns, not the next.
func TestVisitSeesQueuesFilledByThisTicksDemotions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kmin = 2000 // queue trigger at 1000 bytes: one standing frame
	r := newVisitRig(t, cfg, 2, 2, 2)
	src, dst := r.fab.HostsAt[0][0], r.fab.HostsAt[1][0]
	id := r.net.NextFlowID()
	path := r.m.Path(id, src, dst)
	f := r.e.StartFlow(path, FlowOpts{ID: uint64(id), Size: 64 * simtime.MB, Prio: 3, Eligible: true},
		func(*Flow, int64) {
			for i := 0; i < 2; i++ { // one frame on the transmitter, one standing behind it
				pkt := r.net.AllocPacket()
				pkt.Kind, pkt.Src, pkt.Dst, pkt.Size = netsim.KindData, src.ID(), dst.ID(), netsim.DefaultMTU+netsim.DataHeaderBytes
				src.Send(pkt)
			}
		}, nil)
	r.tick()
	nic := path[0]
	if f.Mode != ModeAnalytic || nic.Hot() {
		t.Fatalf("flow should be analytic on an idle path: mode %v, NIC hot %v", f.Mode, nic.Hot())
	}

	sibling := r.m.uplinks[0][0]
	if sibling == path[1] {
		sibling = r.m.uplinks[0][1]
	}
	sibling.Port.SetDown(true)
	r.tick()
	if f.Mode != ModePacket {
		t.Fatal("the sibling uplink's fault did not demote the flow")
	}
	if !nic.Hot() {
		t.Fatal("the NIC queue the demotion filled was not checked at the same tick")
	}
}

// TestRestoreMarksEveryLink: a restore stands in for saved visit state by
// marking all links, whatever the engine it overlays had left pending.
func TestRestoreMarksEveryLink(t *testing.T) {
	r := newVisitRig(t, DefaultConfig(), 2, 2, 2)
	if r.pending() != 0 {
		t.Fatalf("%d links pending on an idle ticked engine", r.pending())
	}
	w := codec.NewWriter()
	r.e.State(codec.Save(w), nil)
	rd, err := codec.NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if r.e.State(codec.Load(rd), nil); rd.Err() != nil {
		t.Fatal(rd.Err())
	}
	if got := r.pending(); got != len(r.e.links) {
		t.Fatalf("%d of %d links marked after the restore", got, len(r.e.links))
	}
}
