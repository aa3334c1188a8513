// Package netsim is a packet-level discrete-event simulator of a datacenter
// network: full-duplex links with serialization and propagation delay,
// shared-buffer switches with per-priority egress queues, WRED/ECN marking,
// priority flow control (PFC), ECMP forwarding, and hosts that carry
// transport protocols (DCQCN, DCTCP) implemented in sibling packages.
//
// The simulator is single-threaded and deterministic: all randomness flows
// from the Network's seeded RNG and events are FIFO tie-broken, so a given
// seed always replays the same run.
package netsim

import "fmt"

// FlowID identifies a transport flow end to end.
type FlowID uint64

// Kind discriminates packet roles.
type Kind uint8

// Packet kinds.
const (
	KindData   Kind = iota // transport payload
	KindAck                // TCP cumulative ACK (echoes ECN)
	KindCNP                // DCQCN congestion notification packet
	KindPause              // PFC pause frame (per priority)
	KindResume             // PFC resume frame (per priority)
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindCNP:
		return "cnp"
	case KindPause:
		return "pause"
	case KindResume:
		return "resume"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NumPrio is the number of traffic classes per port, matching the 8
// priorities of 802.1Qbb PFC.
const NumPrio = 8

// Packet is one unit on the wire. Packets come from the owning Network's
// free list (AllocPacket) and travel by pointer; switches annotate the
// in-flight packet with transient per-hop state (ingress port index) that is
// only valid within one switch. Once a packet reaches its terminal point the
// network returns it to the pool, so nodes and endpoints must copy any field
// they need past the callback that handed them the packet.
//
// A Packet is 64 bytes — one cache line, line-aligned by its size class
// (TestLayout) — so a hop that reads Kind, Prio, Flow, Dst, Size and inPort
// loads one line; that is why Prio, PausePrio and inPort are narrow.
type Packet struct {
	Kind Kind
	Prio uint8 // traffic class, 0..NumPrio-1

	// PFC field (Kind Pause/Resume).
	PausePrio uint8

	Last bool // set on the final data packet of a flow
	Retx bool // retransmission (TCP)

	// ECN.
	ECT bool // ECN-capable transport
	CE  bool // congestion experienced (set by WRED marking)
	ECE bool // ECN echo on ACKs (DCTCP feedback)

	Flow FlowID
	Src  int // source host node id
	Dst  int // destination host node id
	Size int // bytes on the wire, including headers

	// Transport fields.
	Seq       int64 // first payload byte offset (data) or cumulative ack
	FlowBytes int64 // total flow size in bytes, carried for FCT accounting

	// inPort is per-switch transient state: the ingress port index at the
	// switch currently holding the packet, used for PFC buffer accounting.
	// Only a connected port receives packets, and arrivalStream caps a
	// connected port's index at 2^arrivalPortBits.
	inPort uint16

	// pooled marks a packet currently resting in its Network's free list,
	// guarding against double release (which would otherwise silently alias
	// two in-flight packets).
	//acclint:ignore snapcover free-list bookkeeping; a restore takes packets through AllocPacket, which manages the mark
	pooled bool
}

// AllocPacket returns a zeroed packet from the network's free list (or the
// heap when the list is empty). Transports fill in the fields and hand the
// packet to Host.Send / Port.Enqueue; ownership then rests with the network,
// which releases the packet back to the pool at its terminal point —
// delivery, WRED drop, buffer-overflow drop, route blackhole, or link
// blackhole. See DESIGN.md "Performance & memory model" for the ownership
// rules.
func (n *Network) AllocPacket() *Packet {
	n.pktAlloced++
	if last := len(n.pktFree) - 1; last >= 0 {
		p := n.pktFree[last]
		n.pktFree[last] = nil
		n.pktFree = n.pktFree[:last]
		*p = Packet{}
		return p
	}
	n.pktOwed = max(n.pktOwed-1, 0)
	return &Packet{}
}

// ReleasePacket returns a packet to the free list. Releasing the same packet
// twice panics: it means two owners believed they held the packet, which
// corrupts the simulation once the struct is reused. Packets allocated
// outside the pool (tests build literals) are absorbed into it.
func (n *Network) ReleasePacket(p *Packet) {
	if p.pooled {
		panic("netsim: packet released twice")
	}
	p.pooled = true
	n.pktFree = append(n.pktFree, p)
}

// DataHeaderBytes is the protocol overhead added to each data packet's
// payload (Ethernet+IP+UDP+BTH for RoCE, or Ethernet+IP+TCP).
const DataHeaderBytes = 48

// CtrlPacketBytes is the wire size of ACK/CNP/PFC control frames.
const CtrlPacketBytes = 64

// DefaultMTU is the default maximum payload bytes per data packet.
const DefaultMTU = 1000
