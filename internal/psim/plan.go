package psim

import (
	"math/rand"

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
// then Faults in slice order; that order is part of the trace.
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
}

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

	// evs holds every plan-scheduled event handle (flow starts in plan
	// order — receiver then sender — followed by fault ends). Snapshot
	// restore rebuilds the world (re-creating these handles with their
	// original (at, seq) because construction order is deterministic),
	// clears the queues, and re-inserts the still-pending ones via
	// RestorePending.
	//acclint:ignore snapcover rebuilt by construction (same deterministic handles) and re-armed by RestorePending, restore step 3 - not part of the codec stream
	evs []*eventq.Event
}

// RestorePending re-inserts plan events that were still pending at the
// restored clock — those scheduled at or after the snapshot barrier
// (RunBefore fires everything strictly before it).
func (a *Applied) RestorePending() {
	for _, ev := range a.evs {
		if q := ev.Owner(); ev.At() >= q.Now() {
			q.RestoreEvent(ev)
		}
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

// applyPlan schedules every planned flow and fault onto the queues owning
// the respective endpoints. host resolves a HostRef; links resolves a
// LinkRef to its two port ends and checks faults against now. Scheduling
// happens immediately, in plan order, flows before faults — the same
// relative order on every queue in every layout, so same-instant ties
// resolve identically everywhere. An invalid fault panics: plans are built
// by code.
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
	for i, fs := range p.Flows {
		id := netsim.FlowID(i + 1)
		src, dst := host(fs.Src), host(fs.Dst)
		// Ids 1..n are the plan's on every network it touches.
		src.Net().DeclareFlowIDs(netsim.FlowID(n))
		dst.Net().DeclareFlowIDs(netsim.FlowID(n))
		// Receiver first, then sender: both fire at fs.Start, and keeping
		// one fixed relative order on a shared queue keeps the sequential
		// and sharded schedules aligned.
		switch fs.Transport {
		case TransportDCQCN:
			res.evs = append(res.evs, dst.Net().Q.At(fs.Start, func() {
				res.DCQCNRecv[i] = dcqcn.StartReceiver(id, src.ID(), dst, fs.Size, p.DCQCN, func(r *dcqcn.Receiver) {
					res.End[i] = r.End
				})
			}))
			res.evs = append(res.evs, src.Net().Q.At(fs.Start, func() {
				if p.OnStart != nil {
					p.OnStart(i, src.Net().Now())
				}
				res.DCQCNSend[i] = dcqcn.StartSender(src.Net(), id, src, dst.ID(), fs.Size, p.DCQCN)
			}))
		case TransportTCP:
			res.evs = append(res.evs, dst.Net().Q.At(fs.Start, func() {
				res.TCPRecv[i] = tcp.StartReceiver(id, src.ID(), dst, fs.Size, p.TCP, func(r *tcp.Receiver) {
					res.End[i] = r.End
				})
			}))
			res.evs = append(res.evs, src.Net().Q.At(fs.Start, func() {
				if p.OnStart != nil {
					p.OnStart(i, src.Net().Now())
				}
				res.TCPSend[i] = tcp.StartSender(src.Net(), id, src, dst.ID(), fs.Size, p.TCP)
			}))
		}
	}
	evs, err := links.schedule(p.Faults, now)
	if err != nil {
		panic(err)
	}
	res.evs = append(res.evs, evs...)
	return res
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
// faults) so a sequential run driven by RunWindows is comparable
// bit-for-bit. The fabric's own tables locate every port; the hosts-per-leaf
// argument is not read.
func ApplyToFabric(fab *topo.Fabric, _ int, p *Plan) *Applied {
	return applyPlan(p, func(r HostRef) *netsim.Host { return fab.HostsAt[r.Leaf][r.Host] }, fabricLinks(fab), fab.Net.Now())
}
