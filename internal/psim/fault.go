package psim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/accnet/acc/internal/eventq"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

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

// LinkRef addresses a link by tier: for HostLeaf, A is the leaf and B the
// host index; for LeafSpine, A is the leaf and B the spine.
type LinkRef struct {
	Role Role
	A, B int
}

// HostLeafLink addresses the link between leaf l and its i'th host.
func HostLeafLink(l, i int) LinkRef { return LinkRef{Role: HostLeaf, A: l, B: i} }

// LeafSpineLink addresses the link between leaf l and spine s.
func LeafSpineLink(l, s int) LinkRef { return LinkRef{Role: LeafSpine, A: l, B: s} }

// String renders the link as "role link (A,B)" for errors.
func (l LinkRef) String() string { return fmt.Sprintf("%v link (%d,%d)", l.Role, l.A, l.B) }

// FaultEvent is one per-link state change at an absolute virtual time: the
// link goes down or up, or, when Brownout is set, each end's bandwidth
// becomes Scale times what it was when the plan was applied (Scale 1
// restores it). Appliers turn it into two events — one per link end, each on
// the queue owning that end — so shard layouts and the sequential engine all
// execute the identical event set.
type FaultEvent struct {
	At       simtime.Time
	Link     LinkRef
	Down     bool
	Brownout bool
	Scale    float64
}

// DownUp appends a failure and its repair on one link.
func (p *Plan) DownUp(link LinkRef, downAt, upAt simtime.Time) *Plan {
	p.Faults = append(p.Faults,
		FaultEvent{At: downAt, Link: link, Down: true},
		FaultEvent{At: upAt, Link: link, Down: false})
	return p
}

// Brownout appends a bandwidth degradation of one link to scale times its
// bandwidth at from, and its restoration at until.
func (p *Plan) Brownout(link LinkRef, scale float64, from, until simtime.Time) *Plan {
	p.Faults = append(p.Faults,
		FaultEvent{At: from, Link: link, Brownout: true, Scale: scale},
		FaultEvent{At: until, Link: link, Brownout: true, Scale: 1})
	return p
}

// Flap expands a memoryless link-flap process (exponential up times with
// mean MTBF, exponential down times with mean MTTR) into explicit events up
// to the horizon. Failures stop at the horizon; the final repair always
// lands, so the link ends up. The draws happen here, at plan time, from the
// plan's own stream.
func (p *Plan) Flap(link LinkRef, mtbf, mttr simtime.Duration, horizon simtime.Time, seed int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	t := simtime.Time(0)
	for {
		t = t.Add(simtime.Duration(rng.ExpFloat64() * float64(mtbf)))
		if t >= horizon {
			return p
		}
		down := simtime.Duration(rng.ExpFloat64() * float64(mttr))
		p.DownUp(link, t, t.Add(down))
		t = t.Add(down)
	}
}

// FaultWindow bounds the impairment of a fault timeline.
type FaultWindow struct {
	// First is the first instant any link is down or browned out.
	First simtime.Time
	// Last is the last instant every link is healthy again.
	Last simtime.Time
	// Downs counts failures: events that take an up link down.
	Downs int
}

// FaultWindowOf replays a fault timeline up to end, inclusive, in the order
// the appliers fire it (by time, ties in slice order). ok is false when no
// fault takes effect by end or some link is still impaired at end; Downs is
// counted either way.
func FaultWindowOf(fs []FaultEvent, end simtime.Time) (w FaultWindow, ok bool) {
	type state struct{ down, browned bool }
	byTime := slices.Clone(fs)
	slices.SortStableFunc(byTime, func(a, b FaultEvent) int { return cmp.Compare(a.At, b.At) })
	links := map[LinkRef]state{}
	active, started := 0, false
	for _, fe := range byTime {
		if fe.At > end {
			break
		}
		s := links[fe.Link]
		was := s.down || s.browned
		if fe.Brownout {
			s.browned = fe.Scale != 1
		} else {
			if fe.Down && !s.down {
				w.Downs++
			}
			s.down = fe.Down
		}
		links[fe.Link] = s
		switch is := s.down || s.browned; {
		case is && !was:
			if !started {
				w.First, started = fe.At, true
			}
			active++
		case was && !is:
			if active--; active == 0 {
				w.Last = fe.At
			}
		}
	}
	return w, started && active == 0
}

// linkTables are the port tables a LinkRef resolves against: hostUp[l][i]
// is leaf l's i'th host NIC and leafDown[l][i] the leaf-side port of the
// same link; leafUp[l][s] and spineDown[s][l] are the two ends of the
// leaf l – spine s link.
type linkTables struct{ hostUp, leafDown, leafUp, spineDown [][]*netsim.Port }

// engineLinks is the sharded engine's view.
func engineLinks(e *Engine) linkTables {
	return linkTables{e.HostUp, e.LeafDown, e.LeafUp, e.SpineDown}
}

// fabricLinks is a sequential topo.LeafSpine build's view.
func fabricLinks(fab *topo.Fabric) linkTables {
	t := linkTables{leafUp: fab.Uplinks, spineDown: fab.Downlinks}
	for _, hs := range fab.HostsAt {
		up, down := make([]*netsim.Port, len(hs)), make([]*netsim.Port, len(hs))
		for i, h := range hs {
			up[i], down[i] = h.Port, h.Port.Peer
		}
		t.hostUp, t.leafDown = append(t.hostUp, up), append(t.leafDown, down)
	}
	return t
}

// ends resolves a link to its A end (host or leaf side) and its B end.
func (t linkTables) ends(l LinkRef) (a, b *netsim.Port, err error) {
	in := func(i int, n int) bool { return i >= 0 && i < n }
	switch l.Role {
	case HostLeaf:
		if in(l.A, len(t.hostUp)) && in(l.B, len(t.hostUp[l.A])) {
			return t.hostUp[l.A][l.B], t.leafDown[l.A][l.B], nil
		}
	case LeafSpine:
		if in(l.A, len(t.leafUp)) && in(l.B, len(t.leafUp[l.A])) {
			return t.leafUp[l.A][l.B], t.spineDown[l.B][l.A], nil
		}
	}
	return nil, nil, fmt.Errorf("psim: %v outside the topology", l)
}

// schedule checks every fault — not before now, on a link the tables hold,
// a brownout scale positive and finite — and then schedules each as one
// event per link end, on the queue owning that end, in slice order. It
// schedules nothing when a fault fails the check.
func (t linkTables) schedule(fs []FaultEvent, now simtime.Time) ([]*eventq.Event, error) {
	ends := make([]*netsim.Port, 0, 2*len(fs))
	for _, fe := range fs {
		if fe.At < now {
			return nil, fmt.Errorf("psim: fault on %v at %v is before the current instant %v", fe.Link, fe.At, now)
		}
		if fe.Brownout && !(fe.Scale > 0 && !math.IsInf(fe.Scale, 1)) {
			return nil, fmt.Errorf("psim: brownout of %v at %v scales bandwidth by %v, want a positive finite factor", fe.Link, fe.At, fe.Scale)
		}
		a, b, err := t.ends(fe.Link)
		if err != nil {
			return nil, err
		}
		ends = append(ends, a, b)
	}
	evs := make([]*eventq.Event, len(ends))
	for i, p := range ends {
		evs[i] = scheduleEnd(p, fs[i/2])
	}
	return evs, nil
}

// scheduleEnd schedules one link end's half of a fault. A brownout's target
// rate is fixed now, from the end's current bandwidth.
func scheduleEnd(p *netsim.Port, fe FaultEvent) *eventq.Event {
	if fe.Brownout {
		bw := p.Bandwidth * simtime.Rate(fe.Scale)
		return p.Net().Q.At(fe.At, func() { p.SetBandwidth(bw) })
	}
	down := fe.Down
	return p.Net().Q.At(fe.At, func() { p.SetEndDown(down) })
}

// ScheduleFaults checks faults against the engine and schedules them at or
// after its current instant, as Apply schedules a plan's faults. It
// schedules nothing and returns the first error when one fault cannot be
// applied.
func (e *Engine) ScheduleFaults(fs []FaultEvent) error {
	_, err := engineLinks(e).schedule(fs, e.Now())
	return err
}
