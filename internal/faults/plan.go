package faults

import (
	"fmt"
	"sort"

	"github.com/accnet/acc/internal/simtime"
)

// Kind enumerates the typed fault actions a plan can schedule.
type Kind int

const (
	// LinkDown administratively fails a link; in-flight packets are
	// blackholed (netsim.Port.SetDown semantics) and ECMP routes around it.
	LinkDown Kind = iota
	// LinkUp repairs a previously failed link.
	LinkUp
	// Degrade multiplies the link's bandwidth by Event.Factor (a brownout:
	// an optic renegotiating a lower rate). Both directions are degraded.
	Degrade
	// Restore returns a degraded link to its nominal bandwidth.
	Restore
)

// String names the event kind for logs and tables.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "down"
	case LinkUp:
		return "up"
	case Degrade:
		return "degrade"
	case Restore:
		return "restore"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault action on one link, addressed by (Role,
// Index) into the fabric's LinkSet. At is relative to Injector.Start.
type Event struct {
	At     simtime.Duration
	Kind   Kind
	Role   Role
	Index  int
	Factor float64 // Degrade only: fraction of nominal bandwidth, in (0,1)
}

// Flap is a random failure/repair process on one link class: each of the
// first Links links of Role alternates up (exponential mean MTBF) and down
// (exponential mean MTTR), with all draws taken from the injector's RNG
// stream — the classic memoryless link-flap model.
type Flap struct {
	Role  Role
	Links int
	MTBF  simtime.Duration // mean up time between failures
	MTTR  simtime.Duration // mean down time until repair
}

// Telemetry configures collector-path faults for ACC tuners (see StaleDrop):
// observations delayed by StaleSlots monitoring intervals, and each window
// lost independently with probability DropProb.
type Telemetry struct {
	StaleSlots int
	DropProb   float64
}

// Plan is a declarative fault timeline: fixed events plus random flap
// processes. The zero value is a no-op plan.
type Plan struct {
	Events []Event
	Flaps  []Flap
	// Horizon stops flap processes from scheduling new failures beyond
	// this offset from Start (repairs still run, so links end up again).
	// Zero means no horizon.
	Horizon simtime.Duration
}

// LinkDownUp schedules a failure and its repair on one link.
func (p *Plan) LinkDownUp(role Role, index int, downAt, upAt simtime.Duration) *Plan {
	p.Events = append(p.Events,
		Event{At: downAt, Kind: LinkDown, Role: role, Index: index},
		Event{At: upAt, Kind: LinkUp, Role: role, Index: index})
	return p
}

// Brownout schedules a bandwidth degradation window on one link.
func (p *Plan) Brownout(role Role, index int, factor float64, at, until simtime.Duration) *Plan {
	p.Events = append(p.Events,
		Event{At: at, Kind: Degrade, Role: role, Index: index, Factor: factor},
		Event{At: until, Kind: Restore, Role: role, Index: index})
	return p
}

// Sorted returns the timeline events ordered by At, preserving insertion
// order among equal times (stable), so a plan built in any order schedules
// identically.
func (p *Plan) Sorted() []Event {
	out := append([]Event(nil), p.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Validate checks every event and flap against the fabric's links.
func (p *Plan) Validate(ls *LinkSet) error {
	for i, ev := range p.Events {
		links := ls.Of(ev.Role)
		if ev.Index < 0 || ev.Index >= len(links) {
			return fmt.Errorf("faults: event %d (%s %s) index %d out of range: fabric has %d %s links",
				i, ev.Kind, ev.Role, ev.Index, len(links), ev.Role)
		}
		if ev.At < 0 {
			return fmt.Errorf("faults: event %d (%s %s[%d]) has negative offset %v",
				i, ev.Kind, ev.Role, ev.Index, ev.At)
		}
		if ev.Kind == Degrade && (ev.Factor <= 0 || ev.Factor >= 1) {
			return fmt.Errorf("faults: event %d degrades %s[%d] by factor %v, want (0,1)",
				i, ev.Role, ev.Index, ev.Factor)
		}
	}
	for i, f := range p.Flaps {
		links := ls.Of(f.Role)
		if f.Links <= 0 || f.Links > len(links) {
			return fmt.Errorf("faults: flap %d wants %d %s links, fabric has %d",
				i, f.Links, f.Role, len(links))
		}
		if f.MTBF <= 0 || f.MTTR <= 0 {
			return fmt.Errorf("faults: flap %d needs positive MTBF/MTTR, got %v/%v", i, f.MTBF, f.MTTR)
		}
	}
	return nil
}
