package faults

import (
	"reflect"
	"testing"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

func leafSpine(seed int64) (*netsim.Network, *topo.Fabric) {
	net := netsim.New(seed)
	fab := topo.LeafSpine(net, 2, 3, 2, topo.DefaultConfig())
	return net, fab
}

func TestLinksByRole(t *testing.T) {
	_, fab := leafSpine(1)
	ls := Links(fab)
	if got := len(ls.Of(HostLeaf)); got != 6 {
		t.Errorf("host-leaf links = %d, want 6", got)
	}
	if got := len(ls.Of(LeafSpine)); got != 4 {
		t.Errorf("leaf-spine links = %d, want 4", got)
	}
	// Every link must have both ends wired to each other.
	for r := Role(0); r < numRoles; r++ {
		for _, l := range ls.Of(r) {
			if l.A.Peer != l.B || l.B.Peer != l.A {
				t.Fatalf("%s link %s ends are not peers", r, l.Name())
			}
		}
	}
}

func TestPlanSortedStable(t *testing.T) {
	var p Plan
	p.Events = []Event{
		{At: 30, Kind: LinkUp, Index: 2},
		{At: 10, Kind: LinkDown, Index: 0},
		{At: 30, Kind: LinkDown, Index: 1}, // same time as the LinkUp above
		{At: 20, Kind: Degrade, Index: 3, Factor: 0.5},
	}
	got := p.Sorted()
	wantIdx := []int{0, 3, 2, 1}
	for i, idx := range wantIdx {
		if got[i].Index != idx {
			t.Fatalf("sorted[%d].Index = %d, want %d (order %v)", i, got[i].Index, idx, got)
		}
	}
	// Ties keep insertion order: LinkUp(2) before LinkDown(1).
	if got[2].Kind != LinkUp || got[3].Kind != LinkDown {
		t.Errorf("tie at t=30 not stable: got %v then %v", got[2].Kind, got[3].Kind)
	}
	if len(p.Events) != 4 || p.Events[0].At != 30 {
		t.Errorf("Sorted mutated the plan: %v", p.Events)
	}
}

func TestPlanValidate(t *testing.T) {
	_, fab := leafSpine(1)
	ls := Links(fab)
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"good", *new(Plan).LinkDownUp(LeafSpine, 0, 0, simtime.Microsecond), true},
		{"index out of range", *new(Plan).LinkDownUp(LeafSpine, 4, 0, simtime.Microsecond), false},
		{"negative offset", Plan{Events: []Event{{At: -1, Kind: LinkDown, Role: HostLeaf}}}, false},
		{"degrade factor 1", Plan{Events: []Event{{Kind: Degrade, Role: HostLeaf, Factor: 1}}}, false},
		{"good brownout", *new(Plan).Brownout(HostLeaf, 2, 0.5, 0, simtime.Microsecond), true},
		{"flap too many links", Plan{Flaps: []Flap{{Role: LeafSpine, Links: 5, MTBF: 1, MTTR: 1}}}, false},
		{"flap zero mtbf", Plan{Flaps: []Flap{{Role: LeafSpine, Links: 1, MTTR: 1}}}, false},
		{"good flap", Plan{Flaps: []Flap{{Role: LeafSpine, Links: 2, MTBF: 1, MTTR: 1}}}, true},
	}
	for _, c := range cases {
		err := c.plan.Validate(ls)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestInjectorTimeline(t *testing.T) {
	net, fab := leafSpine(1)
	var plan Plan
	plan.LinkDownUp(LeafSpine, 0, 10*simtime.Microsecond, 50*simtime.Microsecond)
	plan.Brownout(HostLeaf, 1, 0.5, 20*simtime.Microsecond, 40*simtime.Microsecond)
	in, err := NewInjector(net, fab, plan)
	if err != nil {
		t.Fatal(err)
	}
	link := in.Links().Of(LeafSpine)[0]
	hostLink := in.Links().Of(HostLeaf)[1]
	nominal := hostLink.A.Bandwidth

	in.Start()
	net.RunUntil(simtime.Time(0).Add(30 * simtime.Microsecond))
	if !link.Down() {
		t.Error("leaf-spine link should be down at t=30µs")
	}
	if got := hostLink.A.Bandwidth; got != nominal/2 {
		t.Errorf("degraded bandwidth = %v, want %v", got, nominal/2)
	}
	net.Run()
	if link.Down() {
		t.Error("leaf-spine link should be repaired after the plan drains")
	}
	if got := hostLink.A.Bandwidth; got != nominal {
		t.Errorf("restored bandwidth = %v, want nominal %v", got, nominal)
	}

	wantKinds := []Kind{LinkDown, Degrade, Restore, LinkUp}
	if len(in.Log) != len(wantKinds) {
		t.Fatalf("log has %d entries, want %d: %v", len(in.Log), len(wantKinds), in.Log)
	}
	for i, k := range wantKinds {
		if in.Log[i].Kind != k {
			t.Errorf("log[%d].Kind = %v, want %v", i, in.Log[i].Kind, k)
		}
	}
	if want := simtime.Time(0).Add(10 * simtime.Microsecond); in.FirstFaultAt != want {
		t.Errorf("FirstFaultAt = %v, want %v", in.FirstFaultAt, want)
	}
	if want := simtime.Time(0).Add(50 * simtime.Microsecond); in.LastRepairAt != want {
		t.Errorf("LastRepairAt = %v, want %v", in.LastRepairAt, want)
	}
}

func flapLog(t *testing.T, seed int64) []Applied {
	t.Helper()
	net, fab := leafSpine(seed)
	plan := Plan{
		Flaps:   []Flap{{Role: LeafSpine, Links: 2, MTBF: 200 * simtime.Microsecond, MTTR: 50 * simtime.Microsecond}},
		Horizon: 5 * simtime.Millisecond,
	}
	in, err := NewInjector(net, fab, plan)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	net.Run() // horizon bounds the flap processes, so the queue drains
	return in.Log
}

func TestFlapDeterminism(t *testing.T) {
	a := flapLog(t, 7)
	b := flapLog(t, 7)
	if len(a) == 0 {
		t.Fatal("flap process produced no events over 5ms with MTBF 200µs")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed flap logs differ:\n a=%v\n b=%v", a, b)
	}
}

func TestFlapNeverStrandsLinks(t *testing.T) {
	net, fab := leafSpine(3)
	plan := Plan{
		Flaps:   []Flap{{Role: LeafSpine, Links: 4, MTBF: 100 * simtime.Microsecond, MTTR: 100 * simtime.Microsecond}},
		Horizon: 2 * simtime.Millisecond,
	}
	in, err := NewInjector(net, fab, plan)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	net.Run()
	for _, l := range in.Links().Of(LeafSpine) {
		if l.Down() {
			t.Errorf("link %s stranded down after the horizon drained", l.Name())
		}
	}
	downs, ups := 0, 0
	for _, a := range in.Log {
		switch a.Kind {
		case LinkDown:
			downs++
		case LinkUp:
			ups++
		}
	}
	if downs != ups {
		t.Errorf("unbalanced flap log: %d downs, %d ups", downs, ups)
	}
	if in.FlapDowns != downs {
		t.Errorf("FlapDowns = %d, want %d", in.FlapDowns, downs)
	}
}

func TestInjectorHeal(t *testing.T) {
	net, fab := leafSpine(1)
	var plan Plan
	plan.LinkDownUp(LeafSpine, 1, 0, simtime.Second) // repair far in the future
	plan.Brownout(HostLeaf, 0, 0.25, 0, simtime.Second)
	in, err := NewInjector(net, fab, plan)
	if err != nil {
		t.Fatal(err)
	}
	nominal := in.Links().Of(HostLeaf)[0].A.Bandwidth
	in.Start()
	net.RunUntil(simtime.Time(0).Add(simtime.Microsecond))
	if !in.Links().Of(LeafSpine)[1].Down() {
		t.Fatal("link should be down before Heal")
	}
	in.Stop()
	in.Heal()
	if in.Links().Of(LeafSpine)[1].Down() {
		t.Error("Heal left the link down")
	}
	if got := in.Links().Of(HostLeaf)[0].A.Bandwidth; got != nominal {
		t.Errorf("Heal left bandwidth %v, want %v", got, nominal)
	}
}

func TestStaleDropStaleness(t *testing.T) {
	f := NewStaleDrop(1, Telemetry{StaleSlots: 2})
	var got []float64
	for i := 1; i <= 5; i++ {
		obs, ok := f.Sample(0, 0, acc.Observation{Util: float64(i)})
		if !ok {
			t.Fatalf("sample %d dropped with DropProb=0", i)
		}
		got = append(got, obs.Util)
	}
	// Two slots of staleness: the first window is re-delivered during
	// warmup, then the stream lags by exactly two.
	want := []float64{1, 1, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stale delivery = %v, want %v", got, want)
	}
	if f.Delivered != 5 || f.Drops != 0 {
		t.Errorf("counters = %d delivered / %d drops, want 5/0", f.Delivered, f.Drops)
	}
	// Queues are independent FIFOs.
	obs, _ := f.Sample(0, 1, acc.Observation{Util: 99})
	if obs.Util != 99 {
		t.Errorf("queue 1 first sample = %v, want its own stream (99)", obs.Util)
	}
}

func TestStaleDropAllDropped(t *testing.T) {
	f := NewStaleDrop(1, Telemetry{DropProb: 1})
	for i := 0; i < 10; i++ {
		if _, ok := f.Sample(0, 0, acc.Observation{Util: 1}); ok {
			t.Fatal("DropProb=1 delivered a window")
		}
	}
	if f.Drops != 10 || f.Delivered != 0 {
		t.Errorf("counters = %d drops / %d delivered, want 10/0", f.Drops, f.Delivered)
	}
}

func TestStaleDropDeterminism(t *testing.T) {
	run := func() []bool {
		f := NewStaleDrop(42, Telemetry{DropProb: 0.5})
		var oks []bool
		for i := 0; i < 50; i++ {
			_, ok := f.Sample(0, 0, acc.Observation{Util: float64(i)})
			oks = append(oks, ok)
		}
		return oks
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("same-seed StaleDrop drop sequence differs between runs")
	}
}

func TestRecoveryTime(t *testing.T) {
	tr := &Tracker{Period: simtime.Microsecond}
	at := func(i int) simtime.Time { return simtime.Time(0).Add(simtime.Duration(i) * simtime.Microsecond) }
	// 10 samples at baseline 10, a dip to 2 during the fault, then back.
	vals := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 2, 2, 2, 2, 9.5, 9.6, 10, 10}
	for i, v := range vals {
		tr.Goodput.Add(at(i), v)
	}
	faultAt, repairAt := at(10), at(13)
	d, ok := tr.RecoveryTime(faultAt, repairAt, 0.9, 2)
	if !ok {
		t.Fatal("recovery not detected")
	}
	// First sustained run of two samples >= 9.0 starts at t=14µs, 1µs
	// after the repair.
	if want := simtime.Microsecond; d != want {
		t.Errorf("recovery time = %v, want %v", d, want)
	}
	if _, ok := tr.RecoveryTime(faultAt, repairAt, 0.9, 10); ok {
		t.Error("recovery reported with an unsatisfiable sustain window")
	}
	if _, ok := tr.RecoveryTime(at(0), at(0), 0.9, 1); ok {
		t.Error("recovery reported with no pre-fault baseline")
	}
}

// TestInjectorHealClosesFaultWindow: Heal is a repair like any other. After
// TestInjectorHeal's plan (one link down, one brownout) it must log one
// repair per link it restores and close the fault window at the heal
// instant, so recovery is measured from there.
func TestInjectorHealClosesFaultWindow(t *testing.T) {
	net, fab := leafSpine(1)
	var plan Plan
	plan.LinkDownUp(LeafSpine, 1, 0, simtime.Second)
	plan.Brownout(HostLeaf, 0, 0.25, 0, simtime.Second)
	in, err := NewInjector(net, fab, plan)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	healAt := simtime.Time(0).Add(simtime.Microsecond)
	net.RunUntil(healAt)
	in.Stop()
	in.Heal()
	if in.active != 0 {
		t.Errorf("%d faults still counted active on a healthy fabric", in.active)
	}
	if in.LastRepairAt != healAt {
		t.Errorf("LastRepairAt = %v, want the heal instant %v", in.LastRepairAt, healAt)
	}
	var kinds []Kind
	for _, a := range in.Log {
		if a.At == healAt {
			kinds = append(kinds, a.Kind)
		}
	}
	if want := []Kind{LinkUp, Restore}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("Heal logged %v, want %v", kinds, want)
	}
	// The plan's own repairs find nothing left to do.
	net.Run()
	if in.active != 0 || in.LastRepairAt != healAt {
		t.Errorf("after the plan drained: active %d, LastRepairAt %v; want 0, %v", in.active, in.LastRepairAt, healAt)
	}
}

// healFlapped runs a one-link flap that has failed link 0 by 60 µs with its
// repair still pending, and heals the fabric then. It reports false when the
// seed's flap process did not leave the link down at that instant.
func healFlapped(t *testing.T, seed int64, plan Plan) (*netsim.Network, *Injector, bool) {
	t.Helper()
	net, fab := leafSpine(seed)
	plan.Flaps = []Flap{{Role: LeafSpine, Links: 1, MTBF: 20 * simtime.Microsecond, MTTR: 100 * simtime.Millisecond}}
	in, err := NewInjector(net, fab, plan)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	net.RunUntil(simtime.Time(0).Add(60 * simtime.Microsecond))
	if in.FlapDowns != 1 || !in.Links().Of(LeafSpine)[0].Down() {
		return net, in, false
	}
	in.Heal()
	return net, in, true
}

// TestHealSupersedesPendingFlapRepair: a flap repair Heal already performed
// must not raise the link a second time. Here a plan failure takes link 0
// down again after the heal, and the stale repair would bring it up in the
// middle of that failure and count a repair that never was.
func TestHealSupersedesPendingFlapRepair(t *testing.T) {
	exercised := 0
	for seed := int64(1); seed <= 6; seed++ {
		var plan Plan
		plan.Horizon = 50 * simtime.Microsecond
		plan.LinkDownUp(LeafSpine, 0, 70*simtime.Microsecond, simtime.Second)
		net, in, ok := healFlapped(t, seed, plan)
		if !ok {
			continue
		}
		exercised++
		healAt := net.Now()
		link := in.Links().Of(LeafSpine)[0]
		for _, at := range []simtime.Duration{100 * simtime.Microsecond, simtime.Millisecond, 500 * simtime.Millisecond, 999 * simtime.Millisecond} {
			net.RunUntil(simtime.Time(0).Add(at))
			if !link.Down() {
				t.Fatalf("seed %d: link 0 up at %v, inside the plan's failure: the healed flap repair ran", seed, at)
			}
		}
		if in.LastRepairAt != healAt {
			t.Errorf("seed %d: LastRepairAt = %v, want the heal instant %v", seed, in.LastRepairAt, healAt)
		}
		net.Run()
		ups := 0
		for _, a := range in.Log {
			if a.Kind == LinkUp {
				ups++
			}
		}
		// One from Heal, one from the plan's own repair at 1 s.
		if ups != 2 || in.active != 0 {
			t.Errorf("seed %d: %d LinkUp records and %d active faults after the run, want 2 and 0: %v", seed, ups, in.active, in.Log)
		}
	}
	if exercised == 0 {
		t.Fatal("no seed left link 0 flapped down at the heal instant")
	}
}

// TestHealedFlapRepairRearms: when the injector is still running, the
// superseded repair event still re-arms the link's next failure, as the
// repair would have, so Heal does not end a flap process.
func TestHealedFlapRepairRearms(t *testing.T) {
	exercised := 0
	for seed := int64(1); seed <= 6; seed++ {
		net, in, ok := healFlapped(t, seed, Plan{})
		if !ok {
			continue
		}
		exercised++
		net.RunUntil(simtime.Time(0).Add(2 * simtime.Second))
		if in.FlapDowns < 2 {
			t.Errorf("seed %d: %d flap failures in 2 s at MTBF 20 µs: Heal ended the flap process", seed, in.FlapDowns)
		}
		downs, ups := 0, 0
		for _, a := range in.Log {
			switch a.Kind {
			case LinkDown:
				downs++
			case LinkUp:
				ups++
			}
		}
		if open := downs - ups; open != in.active || open < 0 || open > 1 {
			t.Errorf("seed %d: %d downs, %d ups, %d active: each failure must have exactly one repair", seed, downs, ups, in.active)
		}
	}
	if exercised == 0 {
		t.Fatal("no seed left link 0 flapped down at the heal instant")
	}
}
