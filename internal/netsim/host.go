package netsim

import (
	"math/rand"

	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
)

// Endpoint consumes packets addressed to a host for one flow. Transport
// implementations (DCQCN, DCTCP) register endpoints on hosts.
type Endpoint interface {
	Handle(pkt *Packet)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(*Packet)

// Handle implements Endpoint.
func (f EndpointFunc) Handle(pkt *Packet) { f(pkt) }

// Host is an end server with a single NIC port. Transports enqueue packets
// through Send; inbound packets are dispatched to the Endpoint registered
// for their flow (in the owning Network's endpoint table).
type Host struct {
	id int
	//acclint:ignore snapcover construction identity (topology naming); not part of dynamic state
	name string
	net  *Network
	//acclint:ignore snapcover per-node stream wrapper; Network.State visits each stream's draw count and restore fast-forwards it
	rng  *rand.Rand // per-node stream keyed on (seed, id); see Network.nodeRng
	Port *Port

	// PauseHooks are notified when the NIC's pause state changes, letting
	// rate-based transports observe PFC back-pressure.
	PauseHooks []func(prio int, paused bool)
}

// NewHost creates a host and registers it with the network at the next free
// id.
func NewHost(net *Network, name string) *Host {
	return NewHostAt(net, name, len(net.nodes))
}

// NewHostAt creates a host registered at an explicit node id, for sharded
// builds that must reproduce the sequential build's id assignment (node ids
// double as routing addresses).
func NewHostAt(net *Network, name string, id int) *Host {
	h := &Host{name: name, net: net}
	h.id = net.registerAt(h, id)
	h.rng = net.nodeRng(h.id)
	return h
}

// ID returns the node id (also the host's address for routing).
func (h *Host) ID() int { return h.id }

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Net returns the owning network.
func (h *Host) Net() *Network { return h.net }

// AttachPort gives the host its NIC port with the given line rate and cable
// delay. Weights configure per-priority NIC egress queues (nil = single
// queue).
func (h *Host) AttachPort(bw simtime.Rate, delay simtime.Duration, weights []int) *Port {
	h.Port = newPort(h.net, h, 0, bw, delay, weights)
	return h.Port
}

// Register binds an endpoint to a flow id for inbound dispatch at h,
// replacing the host's previous binding of that id.
func (h *Host) Register(f FlowID, e Endpoint) { h.net.endpoints.set(h, f, e) }

// Unregister removes a flow binding.
func (h *Host) Unregister(f FlowID) { h.net.endpoints.unset(h, f) }

// Endpoint returns the endpoint registered for flow f at h, or nil.
func (h *Host) Endpoint(f FlowID) Endpoint { return h.net.endpoints.get(h, f) }

// Send enqueues a packet on the NIC egress queue for its priority. The
// network owns the packet from this point on; a WRED drop at the NIC retires
// it immediately.
func (h *Host) Send(pkt *Packet) {
	if h.Port.Enqueue(pkt, h.rng) == red.Drop {
		h.net.ReleasePacket(pkt)
	}
}

// Receive implements Node: PFC frames act on the NIC transmitter; everything
// else is dispatched to the flow's endpoint. Packets for unknown flows are
// dropped silently (late packets after flow teardown). Delivery is the
// packet's terminal point: once the endpoint's Handle returns, the packet
// goes back to the pool, so endpoints must copy fields they need later.
func (h *Host) Receive(pkt *Packet, in *Port) {
	switch pkt.Kind {
	case KindPause:
		in.setPaused(int(pkt.PausePrio), true)
		for _, hook := range h.PauseHooks {
			hook(int(pkt.PausePrio), true)
		}
		h.net.ReleasePacket(pkt)
		return
	case KindResume:
		in.setPaused(int(pkt.PausePrio), false)
		for _, hook := range h.PauseHooks {
			hook(int(pkt.PausePrio), false)
		}
		h.net.ReleasePacket(pkt)
		return
	}
	if e := h.net.endpoints.get(h, pkt.Flow); e != nil {
		e.Handle(pkt)
	}
	h.net.ReleasePacket(pkt)
}
