package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
)

// PFCConfig controls priority flow control at a switch, following the
// dynamic-threshold scheme of the paper's testbed (§5.1): with α=1/8 a pause
// is asserted when an ingress queue consumes more than α of the remaining
// free buffer (≈11.1% of the total at the margin).
type PFCConfig struct {
	Enabled bool
	Alpha   float64          // Xoff = Alpha × free buffer
	XonGap  int              // resume when usage drops XonGap bytes below Xoff
	Delay   simtime.Duration // pause frame generation+propagation extra delay
}

// DefaultPFC mirrors the testbed NIC-vendor default.
func DefaultPFC() PFCConfig {
	return PFCConfig{Enabled: true, Alpha: 1.0 / 8, XonGap: 2 * (DefaultMTU + DataHeaderBytes)}
}

// SwitchConfig parameterizes a switch instance.
type SwitchConfig struct {
	Name        string
	BufferBytes int // shared packet buffer across all ports
	PFC         PFCConfig
	// ECNPrio marks which priorities run ECN-enabled queues; nil means all.
	ECNPrio []int
	// DefaultRED is applied to every ECN-enabled queue at construction.
	DefaultRED red.Config
}

// DefaultSwitchConfig uses a 24MB shared buffer (commodity ToR chip scale)
// and the DCQCN-paper ECN setting as the initial template.
func DefaultSwitchConfig(name string) SwitchConfig {
	return SwitchConfig{
		Name:        name,
		BufferBytes: 24 * simtime.MB,
		PFC:         DefaultPFC(),
		DefaultRED:  red.SECN1(),
	}
}

// Switch is a shared-buffer output-queued switch with per-priority egress
// queues, WRED/ECN marking, PFC, and ECMP forwarding.
type Switch struct {
	id int
	//acclint:ignore snapcover construction identity (topology naming); not part of dynamic state
	name string
	net  *Network
	//acclint:ignore snapcover per-node stream wrapper; Network.State visits each stream's draw count and restore fast-forwards it
	rng *rand.Rand // per-node stream keyed on (seed, id); see Network.nodeRng

	Ports []*Port

	//acclint:ignore snapcover construction config
	cfg SwitchConfig

	// routes[dst] indexes routeSets, the switch's distinct candidate egress
	// port sets (ECMP sets), for the set toward destination node id dst; 0
	// means no route. A dense table of two bytes per node, so forwarding
	// costs one bounds check and two loads whatever the fabric size, and
	// the table of a 2 304-host fabric's switch stays in a few kilobytes.
	//acclint:ignore snapcover ECMP routing wiring, rebuilt by topology construction
	routes []uint16
	// routeSets holds each distinct candidate set once, deduplicated by
	// content at SetRoute; routeSets[0] is the empty set.
	//acclint:ignore snapcover ECMP routing wiring, rebuilt by topology construction
	routeSets [][]*Port

	// Shared-buffer accounting for PFC: bytes resident per (ingress port,
	// priority), plus the total.
	ingUsed   [][NumPrio]int // [port][prio]
	totalUsed int
	pauseSent [][NumPrio]bool // pause currently asserted toward upstream [port][prio]
	// DropsTotal aggregates every drop at this switch. The per-reason
	// counters below partition it: DropsTotal = WREDDrops + OverflowDrops
	// + RouteBlackholes (link blackholes are counted at the transmitting
	// Port, not here).
	DropsTotal uint64
	MarksTotal uint64 // packets CE-marked at this switch
	// WREDDrops counts WRED drops of non-ECT traffic at egress queues.
	WREDDrops uint64
	// OverflowDrops counts shared-buffer admission failures.
	OverflowDrops uint64
	// RouteBlackholes counts packets dropped because every ECMP candidate
	// link toward the destination was down (also included in DropsTotal).
	RouteBlackholes uint64

	// downPorts counts this switch's ports whose link is down, kept by
	// Port.setDown (restore writes down through it too, which recounts); at
	// zero ecmpPick indexes the candidate set directly.
	downPorts int
}

// NewSwitch creates a switch node and registers it with the network at the
// next free id.
func NewSwitch(net *Network, cfg SwitchConfig) *Switch {
	return NewSwitchAt(net, cfg, len(net.nodes))
}

// NewSwitchAt creates a switch registered at an explicit node id, for
// sharded builds that must reproduce the sequential build's id assignment.
func NewSwitchAt(net *Network, cfg SwitchConfig, id int) *Switch {
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = 24 * simtime.MB
	}
	s := &Switch{
		name:      cfg.Name,
		net:       net,
		cfg:       cfg,
		routeSets: [][]*Port{nil},
	}
	s.id = net.registerAt(s, id)
	s.rng = net.nodeRng(s.id)
	return s
}

// ID returns the node id.
func (s *Switch) ID() int { return s.id }

// Name returns the configured switch name.
func (s *Switch) Name() string { return s.name }

// Config returns the switch configuration.
func (s *Switch) Config() SwitchConfig { return s.cfg }

// BufferUsed returns the occupied shared-buffer bytes.
func (s *Switch) BufferUsed() int { return s.totalUsed }

// ecnEnabled reports whether priority prio runs ECN at this switch.
func (s *Switch) ecnEnabled(prio int) bool {
	if s.cfg.ECNPrio == nil {
		return true
	}
	for _, p := range s.cfg.ECNPrio {
		if p == prio {
			return true
		}
	}
	return false
}

// AddPort attaches a new port with the given per-priority DWRR weights
// (nil means a single priority-0 queue). It returns the port.
func (s *Switch) AddPort(bw simtime.Rate, delay simtime.Duration, weights []int) *Port {
	p := newPort(s.net, s, len(s.Ports), bw, delay, weights)
	for _, q := range p.Queues {
		if s.ecnEnabled(q.Prio) {
			q.ECNEnabled = true
			q.RED = s.cfg.DefaultRED
		}
	}
	s.Ports = append(s.Ports, p)
	s.ingUsed = append(s.ingUsed, [NumPrio]int{})
	s.pauseSent = append(s.pauseSent, [NumPrio]bool{})
	return p
}

// SetRoute sets the ECMP candidate ports toward destination host dst; the
// switch keeps its own copy of the set. The first call sizes the table to
// the node registry, which topology construction has filled by the time it
// installs routes; a shard-local registry that stops short of dst grows the
// table the way append would.
func (s *Switch) SetRoute(dst int, ports ...*Port) {
	if dst >= len(s.routes) {
		n := max(dst+1, len(s.net.nodes))
		s.routes = append(s.routes, make([]uint16, n-len(s.routes))...)
	}
	s.routes[dst] = s.routeSet(ports)
}

// routeSet returns the index of the candidate set equal to ports, adding a
// copy when the switch has none. The search starts at the newest set:
// topology construction installs a run of destinations per set.
func (s *Switch) routeSet(ports []*Port) uint16 {
	if len(ports) == 0 {
		return 0
	}
	for i := len(s.routeSets) - 1; i > 0; i-- {
		if slices.Equal(s.routeSets[i], ports) {
			return uint16(i)
		}
	}
	if len(s.routeSets) > math.MaxUint16 {
		panic("netsim: switch has more distinct route sets than a uint16 indexes")
	}
	s.routeSets = append(s.routeSets, slices.Clone(ports))
	return uint16(len(s.routeSets) - 1)
}

// Route returns the ECMP candidate ports toward destination node id dst, or
// nil when the switch has no route to it. The slice is the switch's own.
func (s *Switch) Route(dst int) []*Port {
	if uint(dst) >= uint(len(s.routes)) {
		return nil
	}
	return s.routeSets[s.routes[dst]]
}

// SetRED applies an ECN template to every ECN-enabled queue of every port.
func (s *Switch) SetRED(c red.Config) {
	for _, p := range s.Ports {
		for _, q := range p.Queues {
			if q.ECNEnabled {
				q.RED = c
				s.net.Tracer.WREDUpdate(s.net.Now(), s.id, p.Index, q.Prio, -1, c.Kmin, c.Kmax, c.Pmax)
			}
		}
	}
}

// ecmpPick selects one port from the candidate set by hashing the flow id,
// keeping a flow on a stable path. Ports whose link is administratively
// down are excluded (failure injection); nil is returned when no candidate
// is alive.
func (s *Switch) ecmpPick(ports []*Port, f FlowID) *Port {
	if s.downPorts == 0 {
		return ports[EcmpIndex(f, s.id, len(ports))]
	}
	nAlive := 0
	for _, p := range ports {
		if !p.down {
			nAlive++
		}
	}
	if nAlive == len(ports) {
		return ports[EcmpIndex(f, s.id, nAlive)]
	}
	if nAlive == 0 {
		return nil
	}
	// Some candidate is down: take the EcmpIndex-th live port by counting,
	// the port a compacted copy of the live set would hold at that index.
	k := EcmpIndex(f, s.id, nAlive)
	for _, p := range ports {
		if p.down {
			continue
		}
		if k == 0 {
			return p
		}
		k--
	}
	panic("netsim: ecmpPick ran past the live ports it counted")
}

// EcmpIndex returns the candidate index ecmpPick selects for flow f at the
// switch with the given node id, when all n candidates are alive. It is
// exported so the hybrid fluid model (internal/hybrid) can replicate the
// packet engine's per-flow path choice exactly: a flow modeled analytically
// must occupy the same leaf-spine link the packet engine would carry it on,
// or the fluid utilization the demotion triggers read would be wrong.
func EcmpIndex(f FlowID, node, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(f) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	h += uint64(node) * 0x94d049bb133111eb
	return int(h % uint64(n))
}

// Receive implements Node. Data packets are forwarded; PFC frames act on the
// local transmitter state.
func (s *Switch) Receive(pkt *Packet, in *Port) {
	switch pkt.Kind {
	case KindPause:
		in.setPaused(int(pkt.PausePrio), true)
		s.net.ReleasePacket(pkt)
		return
	case KindResume:
		in.setPaused(int(pkt.PausePrio), false)
		s.net.ReleasePacket(pkt)
		return
	}

	ports := s.Route(pkt.Dst)
	if len(ports) == 0 {
		//acclint:ignore hotpath@1 a route miss is a fatal topology bug; the Sprintf runs only on the panic path
		panic(fmt.Sprintf("netsim: switch %s has no route to host %d", s.name, pkt.Dst))
	}
	out := s.ecmpPick(ports, pkt.Flow)
	if out == nil {
		// Every candidate link is down: blackhole the packet.
		s.DropsTotal++
		s.RouteBlackholes++
		s.net.Tracer.Drop(s.net.Now(), obs.DropRouteBlackhole, s.id, in.Index, int(pkt.Prio), uint64(pkt.Flow), pkt.Size)
		s.net.ReleasePacket(pkt)
		return
	}

	// Admit to the shared buffer.
	if s.totalUsed+pkt.Size > s.cfg.BufferBytes {
		s.DropsTotal++
		s.OverflowDrops++
		s.net.Tracer.Drop(s.net.Now(), obs.DropOverflow, s.id, in.Index, int(pkt.Prio), uint64(pkt.Flow), pkt.Size)
		s.net.ReleasePacket(pkt)
		return
	}
	pkt.inPort = uint16(in.Index)
	s.ingUsed[in.Index][pkt.Prio] += pkt.Size
	s.totalUsed += pkt.Size

	wasCE := pkt.CE
	v := out.Enqueue(pkt, s.rng)
	prio := int(pkt.Prio) // normalized by Enqueue; pkt is invalid past a drop
	if v == red.Drop {
		// WRED dropped a non-ECT packet: release accounting immediately.
		s.releaseBuffer(pkt)
		s.DropsTotal++
		s.WREDDrops++
		s.net.Tracer.Drop(s.net.Now(), obs.DropWRED, s.id, out.Index, prio, uint64(pkt.Flow), pkt.Size)
		s.net.ReleasePacket(pkt)
	} else if pkt.CE && !wasCE {
		s.MarksTotal++
		s.net.Tracer.Mark(s.net.Now(), s.id, out.Index, prio, uint64(pkt.Flow), pkt.Size)
	}

	if s.cfg.PFC.Enabled {
		s.checkPause(in, prio)
	}
}

// checkPause asserts PFC toward the upstream device on port in when the
// ingress usage for prio exceeds the dynamic Xoff threshold.
func (s *Switch) checkPause(in *Port, prio int) {
	if s.pauseSent[in.Index][prio] {
		return
	}
	free := s.cfg.BufferBytes - s.totalUsed
	xoff := int(s.cfg.PFC.Alpha * float64(free))
	if s.ingUsed[in.Index][prio] > xoff {
		s.pauseSent[in.Index][prio] = true
		s.net.Tracer.PFC(s.net.Now(), s.id, in.Index, prio, true)
		pause := s.net.AllocPacket()
		pause.Kind, pause.PausePrio, pause.Size, pause.Src = KindPause, uint8(prio), CtrlPacketBytes, s.id
		in.SendCtrl(pause)
	}
}

// checkResume lifts a previously asserted pause once ingress usage falls
// XonGap below the (current) Xoff threshold.
func (s *Switch) checkResume(portIdx, prio int) {
	if !s.pauseSent[portIdx][prio] {
		return
	}
	free := s.cfg.BufferBytes - s.totalUsed
	xoff := int(s.cfg.PFC.Alpha * float64(free))
	if s.ingUsed[portIdx][prio] <= max(0, xoff-s.cfg.PFC.XonGap) {
		s.pauseSent[portIdx][prio] = false
		s.net.Tracer.PFC(s.net.Now(), s.id, portIdx, prio, false)
		resume := s.net.AllocPacket()
		resume.Kind, resume.PausePrio, resume.Size, resume.Src = KindResume, uint8(prio), CtrlPacketBytes, s.id
		s.Ports[portIdx].SendCtrl(resume)
	}
}

// releaseBuffer releases a packet's shared-buffer accounting when it
// finishes serializing out of (or is dropped inside) this switch.
func (s *Switch) releaseBuffer(pkt *Packet) {
	s.ingUsed[pkt.inPort][pkt.Prio] -= pkt.Size
	s.totalUsed -= pkt.Size
	if s.cfg.PFC.Enabled {
		s.checkResume(int(pkt.inPort), int(pkt.Prio))
	}
}
