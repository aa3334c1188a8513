// Package faults holds what the robustness experiments measure faults with,
// and the one fault psim's timeline does not carry: the link tier a fault
// plan addresses (Role), telemetry loss at the ACC collector (StaleDrop),
// and the recovery metrics — time-to-reconverge of delivered goodput
// (Tracker), packets blackholed and PFC pauses triggered during the fault
// window (Snapshot). Link failures, flaps and brownouts are plain data: a
// psim.Plan's fault timeline, drawn when the plan is built.
//
// Everything is seed-reproducible: telemetry drop decisions are drawn from
// dedicated streams seeded off the network RNG, so two runs with the same
// seed replay the identical fault sequence.
//
// The motivation is the robustness critique of learned ECN tuning (GraphCC,
// PET): ACC is evaluated by its authors only under traffic dynamics, while
// production fabrics also see link failures, topology changes, and
// overloaded switch CPUs that starve the telemetry path (§4.3). This
// package and psim's fault timeline make those scenario classes
// first-class and repeatable.
package faults

import "fmt"

// Role classifies a link by the fabric tiers it joins.
type Role int

const (
	// HostLeaf links join a host NIC to its leaf switch.
	HostLeaf Role = iota
	// LeafSpine links join a leaf switch to a spine.
	LeafSpine
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
