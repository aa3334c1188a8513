package faults

import (
	"math/rand"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

// Applied records one fault action the injector actually performed, in
// order; it doubles as the determinism witness in tests.
type Applied struct {
	At   simtime.Time
	Kind Kind
	Link string
}

// Injector binds a Plan to a built fabric and drives it through the
// simulation event queue. Create it after the fabric is built and before
// (or after) traffic starts, then call Start; the point of creation fixes
// the RNG stream, so keep it at the same place across runs for
// reproducibility.
type Injector struct {
	Net  *netsim.Network
	Plan Plan

	links *LinkSet
	rng   *rand.Rand
	// degraded lists the links in a brownout with their ends' pre-fault
	// bandwidths, in the order they were degraded, so Heal restores them
	// deterministically.
	degraded []brownout
	// flapDown maps each link a flap process failed (by its A end) to the
	// serial of that failure, until the failure is repaired by its own
	// repair event or by Heal; a repair event whose serial is no longer
	// listed finds its work done.
	flapDown   map[*netsim.Port]uint64
	flapSerial uint64
	start      simtime.Time
	started    bool
	stopped    bool
	active     int // faults currently in effect (down or degraded links)

	// Log is every action applied, in application order.
	Log []Applied
	// FlapDowns counts failures induced by flap processes (a subset of the
	// LinkDown entries in Log).
	FlapDowns int
	// FirstFaultAt / LastRepairAt bound the observed fault window: the
	// first moment any fault took effect and the last moment the fabric
	// returned to fully healthy. Zero when no fault fired yet.
	FirstFaultAt simtime.Time
	LastRepairAt simtime.Time
}

// NewInjector validates the plan against the fabric and prepares an
// injector. The RNG stream for flap and telemetry randomness is drawn from
// the network RNG here, exactly once.
func NewInjector(net *netsim.Network, fab *topo.Fabric, plan Plan) (*Injector, error) {
	links := Links(fab)
	if err := plan.Validate(links); err != nil {
		return nil, err
	}
	return &Injector{
		Net:      net,
		Plan:     plan,
		links:    links,
		rng:      rand.New(rand.NewSource(net.Rng.Int63())),
		flapDown: make(map[*netsim.Port]uint64),
	}, nil
}

// brownout is one degraded link and the nominal bandwidths of its A and B
// ends.
type brownout struct {
	link    Link
	nominal [2]simtime.Rate
}

// Links exposes the bound link set (for experiments that report per-link
// detail).
func (in *Injector) Links() *LinkSet { return in.links }

// Start schedules the plan's timeline and launches its flap processes,
// all relative to the current virtual time. Start is idempotent-hostile by
// design: call it once.
func (in *Injector) Start() {
	if in.started {
		panic("faults: Injector.Start called twice")
	}
	in.started = true
	in.start = in.Net.Now()
	for _, ev := range in.Plan.Sorted() {
		ev := ev
		in.Net.Q.After(ev.At, func() {
			if in.stopped {
				return
			}
			in.apply(ev)
		})
	}
	for _, f := range in.Plan.Flaps {
		for i := 0; i < f.Links; i++ {
			in.scheduleFlap(in.links.Of(f.Role)[i], f)
		}
	}
}

// Stop halts future fault actions. Links already down stay down (call
// Heal to force-repair); pending repair events still run so flapped links
// are never stranded by their own process — Stop only blocks new faults.
func (in *Injector) Stop() { in.stopped = true }

// Heal force-repairs the fabric: every downed link in the set comes up and
// every degraded link returns to nominal bandwidth. Each link restored
// counts as one repair and is logged (LinkUp or Restore), exactly as the
// plan's own repair would have been. A flap repair still pending for a link
// Heal raised is then not performed again; it only re-arms the link's next
// failure if the injector is still running.
func (in *Injector) Heal() {
	for r := Role(0); r < numRoles; r++ {
		for _, l := range in.links.Of(r) {
			if l.Down() {
				l.A.SetDown(false)
				delete(in.flapDown, l.A)
				in.record(LinkUp, l)
				in.markRepair()
			}
		}
	}
	for len(in.degraded) > 0 {
		l := in.degraded[0].link
		in.restore(l)
		in.record(Restore, l)
	}
}

// apply performs one timeline event.
func (in *Injector) apply(ev Event) {
	l := in.links.Of(ev.Role)[ev.Index]
	switch ev.Kind {
	case LinkDown:
		if !l.Down() {
			in.markFault()
			l.A.SetDown(true)
		}
	case LinkUp:
		if l.Down() {
			l.A.SetDown(false)
			in.markRepair()
		}
	case Degrade:
		in.degrade(l, ev.Factor)
	case Restore:
		in.restore(l)
	}
	in.record(ev.Kind, l)
}

// brownoutOf returns the index of l in degraded, or -1.
func (in *Injector) brownoutOf(l Link) int {
	for i, b := range in.degraded {
		if b.link.A == l.A {
			return i
		}
	}
	return -1
}

func (in *Injector) degrade(l Link, factor float64) {
	i := in.brownoutOf(l)
	if i < 0 {
		in.degraded = append(in.degraded, brownout{link: l, nominal: [2]simtime.Rate{l.A.Bandwidth, l.B.Bandwidth}})
		i = len(in.degraded) - 1
		in.markFault()
	}
	b := in.degraded[i]
	l.A.SetBandwidth(b.nominal[0] * simtime.Rate(factor))
	l.B.SetBandwidth(b.nominal[1] * simtime.Rate(factor))
}

func (in *Injector) restore(l Link) {
	i := in.brownoutOf(l)
	if i < 0 {
		return
	}
	b := in.degraded[i]
	l.A.SetBandwidth(b.nominal[0])
	l.B.SetBandwidth(b.nominal[1])
	in.degraded = append(in.degraded[:i], in.degraded[i+1:]...)
	in.markRepair()
}

// scheduleFlap arms the next failure of one flapping link.
func (in *Injector) scheduleFlap(l Link, f Flap) {
	up := simtime.Duration(in.rng.ExpFloat64() * float64(f.MTBF))
	in.Net.Q.After(up, func() {
		if in.stopped || in.pastHorizon() || l.Down() {
			return
		}
		in.markFault()
		l.A.SetDown(true)
		in.FlapDowns++
		in.record(LinkDown, l)
		in.flapSerial++
		serial := in.flapSerial
		in.flapDown[l.A] = serial
		down := simtime.Duration(in.rng.ExpFloat64() * float64(f.MTTR))
		in.Net.Q.After(down, func() {
			// The repair always runs — even stopped or past-horizon
			// injectors never strand a link they failed — unless Heal
			// already performed it.
			if in.flapDown[l.A] == serial {
				delete(in.flapDown, l.A)
				l.A.SetDown(false)
				in.markRepair()
				in.record(LinkUp, l)
			}
			if !in.stopped && !in.pastHorizon() {
				in.scheduleFlap(l, f)
			}
		})
	})
}

func (in *Injector) pastHorizon() bool {
	return in.Plan.Horizon > 0 && in.Net.Now().Sub(in.start) >= in.Plan.Horizon
}

func (in *Injector) record(k Kind, l Link) {
	in.Log = append(in.Log, Applied{At: in.Net.Now(), Kind: k, Link: l.Name()})
}

func (in *Injector) markFault() {
	if in.active == 0 && in.FirstFaultAt == 0 {
		in.FirstFaultAt = in.Net.Now()
	}
	in.active++
}

func (in *Injector) markRepair() {
	if in.active > 0 {
		in.active--
		if in.active == 0 {
			in.LastRepairAt = in.Net.Now()
		}
	}
}
