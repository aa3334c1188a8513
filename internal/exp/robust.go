package exp

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/psim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/topo"
	"github.com/accnet/acc/internal/workload"
)

// The robustness suite answers the critique that learned ECN tuning is only
// evaluated under traffic dynamics (GraphCC, PET): it replays deterministic
// fault scenarios — hard link failures, random link flapping, and telemetry
// loss at the collector — and compares ACC against the best static setting
// on goodput, tail FCT, recovery time, and packets blackholed.
func init() {
	register("robust-linkfail", "robustness: leaf-spine link failure + brownout, ACC vs static ECN", runRobustLinkfail)
	register("robust-flap", "robustness: random link flapping (MTBF/MTTR), ACC vs static ECN", runRobustFlap)
	register("robust-telemetry", "robustness: stale/dropped ACC telemetry (switch-CPU overload)", runRobustTelemetry)
}

// robustRow is one policy's measurements from a fault scenario.
type robustRow struct {
	name      string
	goodput   float64 // mean delivered Gbps while the workload ran
	p99Slow   float64 // p99 FCT slowdown vs ideal serialization
	recovery  simtime.Duration
	recovered bool
	window    psim.Losses // counter deltas over the fault window
	flapDowns int
	teleDrops uint64
	flows     int
}

// recoveryCell formats the recovery-time column.
func (r robustRow) recoveryCell() string {
	if !r.recovered {
		return "n/a"
	}
	return r.recovery.String()
}

// p99Slowdown computes the p99 of per-flow FCT divided by the flow's ideal
// serialization time at the host line rate — the standard slowdown metric,
// robust to the flow-size mix in a way raw FCT is not.
func p99Slowdown(recs []stats.FlowRecord, bw simtime.Rate) float64 {
	if len(recs) == 0 {
		return 0
	}
	slows := make([]float64, len(recs))
	for i, r := range recs {
		ideal := float64(r.Size) * 8 / float64(bw) // seconds
		if ideal <= 0 {
			continue
		}
		slows[i] = r.FCT().Seconds() / ideal
	}
	sort.Float64s(slows)
	return stats.Percentile(slows, 0.99)
}

// The robustness fabric: the stress-test leaf-spine pod.
const (
	robustLeaves       = 4
	robustSpines       = 2
	robustHostsPerLeaf = 6
	// leaf-spine links available to fault plans on this fabric
	robustFabricLinks = robustLeaves * robustSpines
)

func robustFabric(net *netsim.Network) *topo.Fabric {
	return topo.LeafSpine(net, robustLeaves, robustHostsPerLeaf, robustSpines, topo.DefaultConfig())
}

// robustUplink addresses the k'th leaf-spine link of the robustness fabric,
// counting each leaf's uplinks in spine order.
func robustUplink(k int) psim.LinkRef { return psim.LeafSpineLink(k/robustSpines, k%robustSpines) }

// runRobust drives each policy through a fault scenario on the stress
// fabric, one runArms arm per policy, and returns their rows in order.
// Each arm draws the fault seed and then the workload seed, so every
// policy sees the identical fault sequence and workload; faultsOf builds
// the timeline from the fault seed (nil means a fault-free fabric, the
// seed still drawn). tels[i], when set, is the telemetry fault applied to
// policy i's D-ACC tuners.
func runRobust(o Options, policies []Policy, faultsOf func(seed int64) *psim.Plan, tels []*telemetry, dur simtime.Duration) []robustRow {
	return runArms(o, robustFabric, 2, policies, func(a arm) robustRow {
		net, fab := a.net, a.fab
		plan := new(psim.Plan)
		if faultsOf != nil {
			plan = faultsOf(a.seeds[0])
		}
		var tele []*staleDrop
		if tels != nil && tels[a.i] != nil && a.sys != nil {
			tele = applyTelemetry(net, a.sys.Tuners, *tels[a.i])
		}
		// Delivered goodput, sampled by one event every period.
		period := dur / 64
		smp := psim.NewSampler(fab.HostPorts(), period)
		var sample func()
		sample = func() {
			smp.OnBarrier(net.Now())
			net.Q.After(period, sample)
		}
		net.Q.After(period, sample)

		var col stats.FCTCollector
		hostBW := 25 * simtime.Gbps
		gen := workload.StartPoisson(net, a.seeds[1], workload.PoissonConfig{
			Hosts:  fab.Hosts,
			Sizes:  workload.WebSearch(),
			Load:   0.6,
			HostBW: hostBW,
			Start:  rdmaStarter(net, hostBW, &col),
		})

		before := psim.FabricLosses(fab)
		psim.ApplyToFabric(fab, robustHostsPerLeaf, plan)
		net.RunUntil(simtime.Time(dur))
		gen.Stop()
		// Drain: in-flight flows finish; flap repairs still land.
		end := simtime.Time(dur + dur/2)
		net.RunUntil(end)

		w, closed := psim.FaultWindowOf(plan.Faults, end)
		row := robustRow{
			name:      policies[a.i].Name,
			goodput:   smp.Goodput.Avg(),
			p99Slow:   p99Slowdown(col.Records, hostBW),
			window:    psim.FabricLosses(fab).Sub(before),
			flapDowns: w.Downs,
			flows:     len(col.Records),
		}
		if closed {
			row.recovery, row.recovered = smp.RecoveryTime(w.First, w.Last, 0.9, 3)
		}
		for _, f := range tele {
			row.teleDrops += f.Drops
		}
		return row
	})
}

// robustPolicies is the comparison every robustness table reports: ACC
// against the testbed's best static setting.
func robustPolicies() []Policy { return []Policy{accPolicy(), secn1()} }

// runRobustLinkfail fails one leaf-spine uplink for the middle half of the
// run and (optionally, -fault-degrade) brownouts a second uplink over the
// same window, then reports how each policy rides through it.
func runRobustLinkfail(o Options) []*Table {
	dur := o.dur(9 * simtime.Millisecond)
	from, until := simtime.Time(dur/4), simtime.Time(dur/2)
	plan := new(psim.Plan).DownUp(robustUplink(0), from, until)
	degraded := "off"
	if f := o.Faults.Degrade; f > 0 && f < 1 {
		plan.Brownout(robustUplink(1), f, from, until)
		degraded = fmt.Sprintf("%.0f%% of nominal", f*100)
	}
	t := &Table{
		Title: "Robustness: leaf-spine link down over [T/4,T/2] (WebSearch 60%)",
		Cols:  []string{"policy", "goodput Gbps", "p99 slowdown", "recovery", "blackholed", "PFC pauses", "flows"},
		Notes: []string{
			"recovery = time after repair until goodput sustains 90% of its pre-fault baseline",
			"brownout of a second uplink: " + degraded,
		},
	}
	for _, r := range runRobust(o, robustPolicies(), func(int64) *psim.Plan { return plan }, nil, dur) {
		t.AddRow(r.name, r.goodput, r.p99Slow, r.recoveryCell(), r.window.Blackholed, r.window.PFCPauses, r.flows)
	}
	return []*Table{t}
}

// runRobustFlap runs a random flap process over the leaf-spine tier:
// -fault-links links alternate up/down with exponential MTBF/MTTR, each
// link's flap drawn from the run's fault seed, so both policies face the
// identical failure trace.
func runRobustFlap(o Options) []*Table {
	dur := o.dur(9 * simtime.Millisecond)
	links, mtbf, mttr := o.Faults.Links, o.Faults.MTBF, o.Faults.MTTR
	if links <= 0 {
		links = 2
	}
	var notes []string
	if links > robustFabricLinks {
		notes = append(notes, fmt.Sprintf("-fault-links %d clamped to the fabric's %d leaf-spine links", links, robustFabricLinks))
		links = robustFabricLinks
	}
	if mtbf <= 0 {
		mtbf = dur / 4
	}
	if mttr <= 0 {
		mttr = dur / 16
	}
	flaps := func(seed int64) *psim.Plan {
		plan := new(psim.Plan)
		for k := 0; k < links; k++ {
			plan.Flap(robustUplink(k), mtbf, mttr, simtime.Time(dur), seed+int64(k))
		}
		return plan
	}
	t := &Table{
		Title: fmt.Sprintf("Robustness: %d leaf-spine links flapping (MTBF %v, MTTR %v)", links, mtbf, mttr),
		Cols:  []string{"policy", "goodput Gbps", "p99 slowdown", "flap downs", "blackholed", "PFC pauses", "flows"},
		Notes: notes,
	}
	for _, r := range runRobust(o, robustPolicies(), flaps, nil, dur) {
		t.AddRow(r.name, r.goodput, r.p99Slow, r.flapDowns, r.window.Blackholed, r.window.PFCPauses, r.flows)
	}
	return []*Table{t}
}

// runRobustTelemetry starves the ACC collector path (§4.3 switch-CPU
// overload): every tuner's observations arrive -fault-stale ΔT slots late
// and each window is lost with probability -fault-drop. The links stay
// healthy — only ACC's view of them degrades — so the static rows double as
// the fault-free baseline and the table isolates what telemetry quality is
// worth.
func runRobustTelemetry(o Options) []*Table {
	dur := o.dur(9 * simtime.Millisecond)
	tel := telemetry{StaleSlots: o.Faults.Stale, DropProb: o.Faults.DropProb}
	if tel.DropProb > 1 {
		tel.DropProb = 1
	}
	if tel.StaleSlots <= 0 && tel.DropProb <= 0 {
		tel = telemetry{StaleSlots: 4, DropProb: 0.3}
	}
	t := &Table{
		Title: fmt.Sprintf("Robustness: ACC telemetry %d slots stale, %.0f%% windows lost (WebSearch 60%%)", tel.StaleSlots, tel.DropProb*100),
		Cols:  []string{"policy", "goodput Gbps", "p99 slowdown", "telemetry drops", "flows"},
	}
	policies := []Policy{accPolicy(), accPolicy(), secn1()}
	policies[0].Name = "ACC (faulted telemetry)"
	policies[1].Name = "ACC (clean)"
	for _, r := range runRobust(o, policies, nil, []*telemetry{&tel, nil, nil}, dur) {
		t.AddRow(r.name, r.goodput, r.p99Slow, r.teleDrops, r.flows)
	}
	return []*Table{t}
}

// telemetry configures collector-path faults for ACC tuners (see
// staleDrop): observations delayed by StaleSlots monitoring intervals, and
// each window lost independently with probability DropProb.
type telemetry struct {
	StaleSlots int
	DropProb   float64
}

// staleDrop implements acc.TelemetryFault: it models a switch CPU too
// overloaded to serve the collector promptly (§4.3), delivering each
// queue's observation stream StaleSlots monitoring intervals late and
// losing each window independently with probability DropProb. During the
// first StaleSlots windows after attachment the oldest available
// observation is delivered (the collector's last known counters).
//
// Attach one staleDrop per tuner: queue indices are tuner-local. All
// randomness comes from the seed passed at construction, so two runs with
// the same seed replay the identical fault sequence.
type staleDrop struct {
	cfg telemetry
	rng *rand.Rand
	buf [][]acc.Observation // per-queue FIFO of pending observations

	// Drops and Delivered count windows lost and delivered (stale or not).
	Drops     uint64
	Delivered uint64
}

// newStaleDrop builds a telemetry fault from a deterministic seed.
func newStaleDrop(seed int64, cfg telemetry) *staleDrop {
	return &staleDrop{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Sample implements acc.TelemetryFault.
func (f *staleDrop) Sample(now simtime.Time, q int, obs acc.Observation) (acc.Observation, bool) {
	if f.cfg.DropProb > 0 && f.rng.Float64() < f.cfg.DropProb {
		f.Drops++
		return acc.Observation{}, false
	}
	if f.cfg.StaleSlots <= 0 {
		f.Delivered++
		return obs, true
	}
	for len(f.buf) <= q {
		f.buf = append(f.buf, nil)
	}
	f.buf[q] = append(f.buf[q], obs)
	f.Delivered++
	if len(f.buf[q]) <= f.cfg.StaleSlots {
		return f.buf[q][0], true // warmup: oldest known counters
	}
	out := f.buf[q][0]
	f.buf[q] = f.buf[q][1:]
	return out, true
}

// applyTelemetry installs an independent staleDrop on every tuner, seeding
// each from the network RNG in tuner order (deterministic). It returns the
// installed faults so callers can read their counters.
func applyTelemetry(net *netsim.Network, tuners []*acc.Tuner, cfg telemetry) []*staleDrop {
	out := make([]*staleDrop, len(tuners))
	for i, t := range tuners {
		out[i] = newStaleDrop(net.Rng.Int63(), cfg)
		t.SetTelemetryFault(out[i])
	}
	return out
}
