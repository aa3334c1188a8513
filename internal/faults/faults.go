// Package faults is the deterministic fault-injection subsystem: it binds
// typed fault timelines — link failures and repairs, random link-flap
// processes, bandwidth brownouts, and telemetry loss at the ACC collector —
// to a built fabric and drives them through the simulation event queue.
//
// Everything is seed-reproducible: all randomness (flap inter-arrival
// times, telemetry drop decisions) is drawn from dedicated streams seeded
// off the network RNG, so two runs with the same seed replay the identical
// fault sequence. The package also provides the recovery metrics the
// robustness experiments report: time-to-reconverge of delivered goodput,
// packets blackholed, and PFC pauses triggered during the fault window.
//
// The motivation is the robustness critique of learned ECN tuning (GraphCC,
// PET): ACC is evaluated by its authors only under traffic dynamics, while
// production fabrics also see link failures, topology changes, and
// overloaded switch CPUs that starve the telemetry path (§4.3). This
// package makes those scenario classes first-class and repeatable.
package faults

import (
	"fmt"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/topo"
)

// Role classifies a link by the fabric tiers it joins. Plans address links
// as (role, index) pairs so the same plan applies to any fabric size.
type Role int

const (
	// HostLeaf links join a host NIC to its leaf switch.
	HostLeaf Role = iota
	// LeafSpine links join a leaf switch to a spine.
	LeafSpine

	numRoles
)

// String returns the flag-friendly role name.
func (r Role) String() string {
	switch r {
	case HostLeaf:
		return "host-leaf"
	case LeafSpine:
		return "leaf-spine"
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// Link is one full-duplex link. A is the lower-tier end (host or leaf);
// netsim.Port.SetDown acts on both ends, so acting on A suffices.
type Link struct {
	Role Role
	A, B *netsim.Port
}

// Name renders the link as "owner<->owner" for tables and logs.
func (l Link) Name() string {
	return l.A.Owner.Name() + "<->" + l.B.Owner.Name()
}

// Down reports whether the link is currently failed.
func (l Link) Down() bool { return l.A.IsDown() }

// LinkSet is the fabric's links grouped by role, each slice in
// deterministic fabric-construction order.
type LinkSet [numRoles][]Link

// Of returns the links of one role.
func (ls *LinkSet) Of(r Role) []Link {
	if r < 0 || r >= numRoles {
		return nil
	}
	return ls[r]
}

// Links enumerates and classifies every link of a built fabric. Ordering
// follows the fabric's construction order (hosts, then each leaf's spine
// ports), so the same topology always yields the same numbering — the
// property plans rely on for reproducibility.
func Links(fab *topo.Fabric) *LinkSet {
	spines := make(map[netsim.Node]bool, len(fab.Spines))
	for _, s := range fab.Spines {
		spines[s] = true
	}
	var ls LinkSet
	for _, h := range fab.Hosts {
		if h.Port != nil && h.Port.Peer != nil {
			ls[HostLeaf] = append(ls[HostLeaf], Link{Role: HostLeaf, A: h.Port, B: h.Port.Peer})
		}
	}
	for _, leaf := range fab.Leaves {
		for _, p := range leaf.Ports {
			if p.Peer != nil && spines[p.Peer.Owner] {
				ls[LeafSpine] = append(ls[LeafSpine], Link{Role: LeafSpine, A: p, B: p.Peer})
			}
		}
	}
	return &ls
}
