package psim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

func us(n int64) simtime.Time { return simtime.Time(0).Add(simtime.Duration(n) * simtime.Microsecond) }

// smallFabric is a 2-leaf, 3-hosts-per-leaf, 2-spine fabric.
func smallFabric(seed int64) (*netsim.Network, *topo.Fabric) {
	net := netsim.New(seed)
	return net, topo.LeafSpine(net, 2, 3, 2, topo.DefaultConfig())
}

func flapPlan(seed int64, horizon simtime.Time) *Plan {
	return new(Plan).
		Flap(LeafSpineLink(0, 0), 100*simtime.Microsecond, 100*simtime.Microsecond, horizon, seed).
		Flap(LeafSpineLink(1, 1), 100*simtime.Microsecond, 100*simtime.Microsecond, horizon, seed+1)
}

func TestFlapDeterminism(t *testing.T) {
	horizon := us(5000)
	a, b := flapPlan(7, horizon), flapPlan(7, horizon)
	if len(a.Faults) == 0 {
		t.Fatal("flap process produced no events over 5ms with MTBF 100µs")
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Errorf("same-seed flap timelines differ:\n a=%v\n b=%v", a.Faults, b.Faults)
	}
	if reflect.DeepEqual(a.Faults, flapPlan(8, horizon).Faults) {
		t.Error("different seeds drew the same flap timeline")
	}
}

// TestFlapNeverStrandsLinks: every failure a flap draws is repaired later on
// the same link, and no failure lands at or after the horizon.
func TestFlapNeverStrandsLinks(t *testing.T) {
	horizon := us(2000)
	plan := flapPlan(3, horizon)
	for i, fe := range plan.Faults {
		if !fe.Down {
			continue
		}
		if fe.At >= horizon {
			t.Errorf("failure of %v at %v, at or after the %v horizon", fe.Link, fe.At, horizon)
		}
		j := slices.IndexFunc(plan.Faults[i+1:], func(u FaultEvent) bool { return u.Link == fe.Link })
		if j < 0 || plan.Faults[i+1+j].Down || plan.Faults[i+1+j].At < fe.At {
			t.Errorf("failure of %v at %v has no later repair", fe.Link, fe.At)
		}
	}
}

// TestFaultTimeline: a failure and a brownout applied to a fabric act on
// both ends of their links at their instants and are undone at theirs.
func TestFaultTimeline(t *testing.T) {
	net, fab := smallFabric(1)
	ApplyToFabric(fab, 3, new(Plan).
		DownUp(LeafSpineLink(0, 0), us(10), us(50)).
		Brownout(HostLeafLink(0, 1), 0.5, us(20), us(40)))
	link, host := fab.Uplinks[0][0], fab.HostsAt[0][1].Port
	nominal := [2]simtime.Rate{host.Bandwidth, host.Peer.Bandwidth}
	for _, c := range []struct {
		at   simtime.Time
		down bool
		bw   [2]simtime.Rate
	}{{us(30), true, [2]simtime.Rate{nominal[0] / 2, nominal[1] / 2}}, {us(60), false, nominal}} {
		net.RunUntil(c.at)
		if link.IsDown() != c.down || link.Peer.IsDown() != c.down {
			t.Errorf("at %v: leaf-spine ends down %v/%v, want %v", c.at, link.IsDown(), link.Peer.IsDown(), c.down)
		}
		if bw := [2]simtime.Rate{host.Bandwidth, host.Peer.Bandwidth}; bw != c.bw {
			t.Errorf("at %v: host link bandwidths %v, want %v", c.at, bw, c.bw)
		}
	}
}

// TestFaultWindow reads hand-built timelines, listed out of time order: the
// window replays them by time with ties in slice order, a fault at t = 0
// opens it, overlapping faults keep it open, and a repeated failure of a
// down link is not another down.
func TestFaultWindow(t *testing.T) {
	a, b := LeafSpineLink(0, 0), HostLeafLink(1, 2)
	timeline := []FaultEvent{
		{At: us(40), Link: b, Brownout: true, Scale: 1},
		{At: us(30), Link: a, Down: false},
		{At: 0, Link: a, Down: true},
		{At: us(10), Link: b, Brownout: true, Scale: 0.25},
		{At: us(20), Link: a, Down: true},
		{At: us(60), Link: a, Down: true},
		{At: us(60), Link: a, Down: false},
	}
	for _, c := range []struct {
		end  simtime.Time
		want FaultWindow
		ok   bool
	}{
		{us(100), FaultWindow{First: 0, Last: us(60), Downs: 2}, true},
		{us(50), FaultWindow{First: 0, Last: us(40), Downs: 1}, true},
		{us(40), FaultWindow{First: 0, Last: us(40), Downs: 1}, true},
		{us(35), FaultWindow{First: 0, Downs: 1}, false},
		{0, FaultWindow{First: 0, Downs: 1}, false},
	} {
		w, ok := FaultWindowOf(timeline, c.end)
		if w != c.want || ok != c.ok {
			t.Errorf("end %v: FaultWindowOf = %+v, %v; want %+v, %v", c.end, w, ok, c.want, c.ok)
		}
	}
	if w, ok := FaultWindowOf(nil, us(100)); ok || w != (FaultWindow{}) {
		t.Errorf("empty timeline: FaultWindowOf = %+v, %v; want zero, false", w, ok)
	}
}

// TestFaultValidation: the sharded and the fabric resolver refuse the same
// faults, each with its error, and schedule nothing for a timeline that
// holds one.
func TestFaultValidation(t *testing.T) {
	net, fab := smallFabric(1)
	tables := []linkTables{engineLinks(Build(testConfig(2, 3, 2, 2, 1))), fabricLinks(fab)}
	good, ls := FaultEvent{At: 5, Link: LeafSpineLink(1, 1), Down: true}, LeafSpineLink(0, 0)
	for _, c := range []struct {
		fe   FaultEvent
		want string
	}{
		{FaultEvent{Link: LeafSpineLink(2, 0)}, "outside the topology"},
		{FaultEvent{Link: LeafSpineLink(0, 2)}, "outside the topology"},
		{FaultEvent{Link: HostLeafLink(0, 3)}, "outside the topology"},
		{FaultEvent{Link: HostLeafLink(-1, 0)}, "outside the topology"},
		{FaultEvent{Link: LinkRef{Role: 7}}, "outside the topology"},
		{FaultEvent{At: -1, Link: ls}, "before the current instant"},
		{FaultEvent{Link: ls, Brownout: true}, "positive finite"},
		{FaultEvent{Link: ls, Brownout: true, Scale: -0.5}, "positive finite"},
		{FaultEvent{Link: ls, Brownout: true, Scale: math.NaN()}, "positive finite"},
		{FaultEvent{Link: ls, Brownout: true, Scale: math.Inf(1)}, "positive finite"},
	} {
		for i, lt := range tables {
			if evs, err := lt.schedule([]FaultEvent{good, c.fe}, 0); err == nil || !strings.Contains(err.Error(), c.want) || evs != nil {
				t.Errorf("resolver %d: %+v: error %v, %d events; want a %q error and none", i, c.fe, err, len(evs), c.want)
			}
		}
	}
	if net.Q.Pending() != 0 {
		t.Errorf("%d events scheduled by refused timelines", net.Q.Pending())
	}
	for i, lt := range tables {
		if evs, err := lt.schedule([]FaultEvent{good, {Link: ls, Brownout: true, Scale: 2}}, 0); err != nil || len(evs) != 4 {
			t.Errorf("resolver %d: valid timeline: %d events, error %v; want 4, nil", i, len(evs), err)
		}
	}
}

// TestEndPairsMatchSetDown proves the per-end fault events every applier
// schedules observably equal the sequential both-ends writes: a mixed DCQCN
// and TCP workload under random failures and brownouts, once with one
// SetDown (or a SetBandwidth on both ends) per fault and once through
// ApplyToFabric, must agree on every flow end, counter and goodput sample,
// with exactly one more event per fault.
func TestEndPairsMatchSetDown(t *testing.T) {
	const nLeaf, hostsPerLeaf, nSpine = 3, 3, 2
	horizon := us(3000)
	for _, seed := range []int64{2, 9} {
		cfg := testConfig(nLeaf, hostsPerLeaf, nSpine, 1, seed)
		flows := NewPlan(cfg.Topo.HostBW).
			RandomFlows(nLeaf, hostsPerLeaf, 30, 48<<10, 300*simtime.Microsecond, true, seed)
		faulted := *flows
		rng := rand.New(rand.NewSource(seed))
		link := func() LinkRef {
			if rng.Intn(2) == 0 {
				return HostLeafLink(rng.Intn(nLeaf), rng.Intn(hostsPerLeaf))
			}
			return LeafSpineLink(rng.Intn(nLeaf), rng.Intn(nSpine))
		}
		for i := 0; i < 6; i++ {
			at := us(rng.Int63n(300))
			until := at.Add(simtime.Duration(1+rng.Int63n(300)) * simtime.Microsecond)
			if i%2 == 0 {
				faulted.DownUp(link(), at, until)
			} else {
				faulted.Brownout(link(), 0.1+0.8*rng.Float64(), at, until)
			}
		}

		pairs := runSequential(cfg, &faulted, horizon)
		if pairs.blackholed == 0 {
			t.Fatalf("seed %d: faults produced no losses — not exercising the fault path", seed)
		}
		whole := runSequential(cfg, flows, horizon, func(fab *topo.Fabric) {
			for _, fe := range faulted.Faults {
				a, b, _ := fabricLinks(fab).ends(fe.Link)
				if fe.Brownout {
					ra, rb := a.Bandwidth*simtime.Rate(fe.Scale), b.Bandwidth*simtime.Rate(fe.Scale)
					fab.Net.Q.At(fe.At, func() { a.SetBandwidth(ra); b.SetBandwidth(rb) })
					continue
				}
				down := fe.Down
				fab.Net.Q.At(fe.At, func() { a.SetDown(down) })
			}
		})
		if got, want := pairs.processed-whole.processed, uint64(len(faulted.Faults)); got != want {
			t.Errorf("seed %d: per-end run processed %d more events than the SetDown run, want %d", seed, got, want)
		}
		whole.processed = pairs.processed
		diffResults(t, "per-end pairs vs SetDown", whole, pairs)
	}
}
