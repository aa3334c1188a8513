package psim

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/eventq"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/tcp"
	"github.com/accnet/acc/internal/topo"
)

// Transport selects the protocol driving one planned flow.
type Transport int

const (
	// TransportDCQCN is the RDMA rate-based transport (internal/dcqcn).
	TransportDCQCN Transport = iota
	// TransportTCP is the windowed DCTCP-family transport (internal/tcp).
	TransportTCP
)

// HostRef addresses a host by (leaf index, host index under that leaf).
type HostRef struct{ Leaf, Host int }

// FlowSpec is one planned transfer. Flow ids are implied by position: the
// i'th spec is netsim.FlowID(i+1) in every engine.
type FlowSpec struct {
	Src, Dst  HostRef
	Size      int64
	Start     simtime.Time
	Transport Transport
}

// Plan is a precomputed, engine-independent workload and fault trace. All
// randomness (flow draws, flap expansion) happens at plan-build time from
// explicit seeds, never during simulation, which is what makes one plan
// replayable bit-identically across shard layouts. Appliers iterate Flows
// then Faults in slice order; that order is part of the trace. Starts read
// Flows as they fire, so Flows must not change once the plan is applied.
type Plan struct {
	Flows  []FlowSpec
	Faults []FaultEvent

	DCQCN dcqcn.Params
	TCP   tcp.Params

	// OnStart, when set, observes flow i at the instant the engine actually
	// launches it (the trace recorder's hook — see workload.Recorder). It is
	// invoked inside the existing start event, never as an event of its own,
	// so recording does not perturb the schedule. Under the sharded engine it
	// fires on the shard owning the sender; implementations must be safe for
	// that (per-flow slot writes, no shared appends).
	OnStart func(i int, at simtime.Time)

	// layouts are the start layouts of the host→queue layouts the plan was
	// applied to, guarded by layoutsMu: applications may run concurrently.
	layouts []*startLayout
}

var layoutsMu sync.Mutex

// NewPlan returns an empty plan with transport parameter defaults for the
// given host line rate.
func NewPlan(hostBW simtime.Rate) *Plan {
	return &Plan{DCQCN: dcqcn.DefaultParams(hostBW), TCP: tcp.DefaultParams()}
}

// RandomFlows appends n random cross-fabric transfers: uniform source and
// destination hosts (never equal), sizes uniform in [1 KB, maxBytes], start
// times uniform in [0, spread). When mixTCP is set every third flow runs
// TCP, exercising the sender/receiver split of both transports.
func (p *Plan) RandomFlows(nLeaf, hostsPerLeaf, n int, maxBytes int64, spread simtime.Duration, mixTCP bool, seed int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	if maxBytes < 1024 {
		maxBytes = 1024
	}
	for i := 0; i < n; i++ {
		src := HostRef{rng.Intn(nLeaf), rng.Intn(hostsPerLeaf)}
		dst := src
		for dst == src {
			dst = HostRef{rng.Intn(nLeaf), rng.Intn(hostsPerLeaf)}
		}
		fs := FlowSpec{
			Src:   src,
			Dst:   dst,
			Size:  1024 + rng.Int63n(maxBytes-1023),
			Start: simtime.Time(rng.Int63n(int64(spread) + 1)),
		}
		if mixTCP && i%3 == 2 {
			fs.Transport = TransportTCP
		}
		p.Flows = append(p.Flows, fs)
	}
	return p
}

// Applied tracks the live transport objects and results of one plan
// instantiation. Slices are indexed by flow position in the plan; entries
// for the other transport are nil.
type Applied struct {
	Plan *Plan

	DCQCNSend []*dcqcn.Flow
	DCQCNRecv []*dcqcn.Receiver
	TCPSend   []*tcp.Flow
	TCPRecv   []*tcp.Receiver

	// End[i] is the receiver completion time of flow i (zero while
	// incomplete). The bit-identity contract compares these across layouts.
	End []simtime.Time

	// Hybrid is the hybrid-fidelity bookkeeping when the plan was applied
	// via ApplyHybrid; nil for pure packet instantiations.
	Hybrid *HybridState

	// armed is what the plan keeps scheduled: a start cursor per queue and
	// the fault-end handles, re-armed on restore by RestorePending.
	//acclint:ignore snapcover derived from the restored clock by RestorePending (restore step 2): a cursor's position is its first start not before it - not part of the codec stream
	armed struct {
		starts []*startCursor
		evs    []*eventq.Event // fault ends, in plan order
	}
}

// RestorePending re-arms plan events still pending at the restored clock:
// those at or after the snapshot barrier (RunBefore fires everything
// strictly before it).
func (a *Applied) RestorePending() {
	for _, c := range a.armed.starts {
		c.pos = sort.Search(len(c.ents), func(k int) bool { return c.start(k) >= c.q.Now() })
		c.arm()
	}
	for _, ev := range a.armed.evs {
		if q := ev.Owner(); ev.At() >= q.Now() {
			q.RestoreEvent(ev)
		}
	}
}

// startCursor starts the flow halves whose host one queue owns, in the
// order of the queue's list in the start layout, the k'th at the k'th seq of
// the queue's reserved block: the order, against each other and every other
// event, of one At per half at apply time. One handle sits at the next
// start's slot. Only the shard owning the queue touches its cursor.
type startCursor struct {
	a    *Applied
	q    *eventq.Queue
	host func(HostRef) *netsim.Host
	base uint64   // first seq of the reserved block
	ents []uint32 // the queue's halves in the shared layout
	pos  int      // the next entry to start
	ev   *eventq.Event
	fire func() // c.next, bound once
}

// start returns entry k's start instant.
func (c *startCursor) start(k int) simtime.Time { return c.a.Plan.Flows[c.ents[k]>>1].Start }

// arm schedules the handle at the next entry's slot, if one is left.
func (c *startCursor) arm() {
	if c.pos < len(c.ents) {
		c.ev = c.q.AtSlot(c.ev, c.start(c.pos), c.base+uint64(c.pos), c.fire)
	}
}

// next starts the entry the handle was armed for and re-arms it.
func (c *startCursor) next() {
	half := c.ents[c.pos]
	c.pos++
	c.arm()
	i, a, p := int(half>>1), c.a, c.a.Plan
	fs, id := &p.Flows[i], netsim.FlowID(i+1)
	src, dst := c.host(fs.Src), c.host(fs.Dst)
	if half&1 == 1 && p.OnStart != nil {
		p.OnStart(i, c.q.Now())
	}
	switch {
	case fs.Transport == TransportDCQCN && half&1 == 0:
		a.DCQCNRecv[i] = dcqcn.StartReceiver(id, src.ID(), dst, fs.Size, p.DCQCN, func(r *dcqcn.Receiver) { a.End[i] = r.End })
	case fs.Transport == TransportDCQCN:
		a.DCQCNSend[i] = dcqcn.StartSender(src.Net(), id, src, dst.ID(), fs.Size, p.DCQCN)
	case fs.Transport == TransportTCP && half&1 == 0:
		a.TCPRecv[i] = tcp.StartReceiver(id, src.ID(), dst, fs.Size, p.TCP, func(r *tcp.Receiver) { a.End[i] = r.End })
	case fs.Transport == TransportTCP:
		a.TCPSend[i] = tcp.StartSender(src.Net(), id, src, dst.ID(), fs.Size, p.TCP)
	}
}

// FCT returns flow i's completion time, or (0, false) while incomplete.
func (a *Applied) FCT(i int) (simtime.Duration, bool) {
	if a.End[i] == 0 {
		return 0, false
	}
	return a.End[i].Sub(a.Plan.Flows[i].Start), true
}

// DoneCount returns how many flows have completed.
func (a *Applied) DoneCount() int {
	n := 0
	for _, e := range a.End {
		if e != 0 {
			n++
		}
	}
	return n
}

// applyPlan arms every planned flow and schedules every fault onto the
// queues owning the respective endpoints. host resolves a HostRef; links
// resolves a LinkRef to its two port ends and checks faults against now.
// Each queue reserves the seqs one At per flow half would take, in plan
// order (receiver before sender), and faults take the seqs after: the same
// order on every queue in every layout, so same-instant ties resolve
// identically everywhere. A start or fault before now panics.
func applyPlan(p *Plan, host func(HostRef) *netsim.Host, links linkTables, now simtime.Time) *Applied {
	n := len(p.Flows)
	res := &Applied{
		Plan:      p,
		DCQCNSend: make([]*dcqcn.Flow, n),
		DCQCNRecv: make([]*dcqcn.Receiver, n),
		TCPSend:   make([]*tcp.Flow, n),
		TCPRecv:   make([]*tcp.Receiver, n),
		End:       make([]simtime.Time, n),
	}
	// The host→queue layout: 1 + each named host's queue, numbered by first
	// use in plan order, row-major by HostRef; 0 for a host never named.
	rows, cols := 0, 0
	for _, fs := range p.Flows {
		rows, cols = max(rows, fs.Src.Leaf+1, fs.Dst.Leaf+1), max(cols, fs.Src.Host+1, fs.Dst.Host+1)
	}
	key := make([]int32, rows*cols)
	var cs []*startCursor
	for _, fs := range p.Flows {
		for _, r := range [2]HostRef{fs.Dst, fs.Src} {
			if k := &key[r.Leaf*cols+r.Host]; *k == 0 {
				h := host(r)
				h.Net().DeclareFlowIDs(netsim.FlowID(n)) // ids 1..n are the plan's on every network it touches
				*k = int32(1 + slices.IndexFunc(cs, func(c *startCursor) bool { return c.q == h.Net().Q }))
				if *k == 0 {
					*k, cs = int32(1+len(cs)), append(cs, &startCursor{a: res, q: h.Net().Q, host: host})
					cs[len(cs)-1].fire = cs[len(cs)-1].next
				}
			}
		}
	}
	l := p.layout(key, cols, len(cs))
	for k, c := range cs {
		c.ents = l.ents[k]
		c.base = c.q.Reserve(len(c.ents))
		c.arm()
	}
	evs, err := links.schedule(p.Faults, now)
	if err != nil {
		panic(err)
	}
	res.armed.starts, res.armed.evs = cs, evs
	return res
}

// startLayout is the start order of a plan's flow halves under one
// host→queue layout, a pure function of the two, read-only and shared:
// ents[k] lists queue k's halves (flow index<<1, | 1 for the sender) by
// (Start, plan order).
type startLayout struct {
	flows []FlowSpec // the Flows it orders
	key   []int32
	ents  [][]uint32
}

// layout returns the plan's start layout for key (see applyPlan), made on
// the key's first use.
func (p *Plan) layout(key []int32, cols, queues int) *startLayout {
	layoutsMu.Lock()
	defer layoutsMu.Unlock()
	for _, l := range p.layouts {
		if len(l.flows) == len(p.Flows) && (len(p.Flows) == 0 || &l.flows[0] == &p.Flows[0]) && slices.Equal(l.key, key) {
			return l
		}
	}
	queueOf := func(r HostRef) int { return int(key[r.Leaf*cols+r.Host]) - 1 }
	count := make([]int, queues)
	for _, fs := range p.Flows {
		count[queueOf(fs.Dst)]++
		count[queueOf(fs.Src)]++
	}
	l := &startLayout{flows: p.Flows, key: key, ents: make([][]uint32, queues)}
	all := make([]uint32, 2*len(p.Flows))
	for k, c := range count {
		l.ents[k], all = all[:0:c], all[c:]
	}
	for i, fs := range p.Flows {
		for half, r := range [2]HostRef{fs.Dst, fs.Src} {
			k := queueOf(r)
			l.ents[k] = append(l.ents[k], uint32(i<<1|half))
		}
	}
	for _, ents := range l.ents {
		slices.SortStableFunc(ents, func(x, y uint32) int {
			return cmp.Compare(p.Flows[x>>1].Start, p.Flows[y>>1].Start)
		})
	}
	p.layouts = append(p.layouts, l)
	return l
}

// Apply instantiates the plan on the sharded engine: senders start in the
// shard owning the source host, receivers in the shard owning the
// destination, fault ends on the shards owning each port.
func (e *Engine) Apply(p *Plan) *Applied {
	return applyPlan(p, func(r HostRef) *netsim.Host { return e.Hosts[r.Leaf][r.Host] }, engineLinks(e), e.Now())
}

// ApplyToFabric instantiates the same plan on a sequential topo.LeafSpine
// build, at the fabric's current instant: the single-threaded baseline of
// the differential tests, and the fault timeline of the robust-* runners.
// It schedules the identical event set (including the per-end events of
// faults) so a sequential run driven at Engine.Run's barrier cadence is
// comparable bit-for-bit. The fabric's own tables locate every port; the
// hosts-per-leaf argument is not read.
func ApplyToFabric(fab *topo.Fabric, _ int, p *Plan) *Applied {
	return applyPlan(p, func(r HostRef) *netsim.Host { return fab.HostsAt[r.Leaf][r.Host] }, fabricLinks(fab), fab.Net.Now())
}
