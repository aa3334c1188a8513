package faults

import (
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/topo"
)

// Tracker samples fabric-wide delivered goodput (bytes arriving at host
// NICs) on a fixed period, the signal the recovery metrics are computed
// from: a link failure shows up as a goodput dip, and reconvergence as the
// return to the pre-fault baseline.
type Tracker struct {
	Period  simtime.Duration
	Goodput stats.Series // delivered Gbps per period

	net     *netsim.Network
	hosts   []*netsim.Host
	lastRx  uint64
	stopped bool
}

// Track starts sampling the fabric every period.
func Track(net *netsim.Network, fab *topo.Fabric, period simtime.Duration) *Tracker {
	tr := &Tracker{Period: period, net: net, hosts: fab.Hosts}
	tr.lastRx = tr.totalRx()
	tr.schedule()
	return tr
}

// Stop ends sampling.
func (tr *Tracker) Stop() { tr.stopped = true }

func (tr *Tracker) totalRx() uint64 {
	var sum uint64
	for _, h := range tr.hosts {
		if h.Port != nil {
			sum += h.Port.RxBytesTotal
		}
	}
	return sum
}

func (tr *Tracker) schedule() {
	tr.net.Q.After(tr.Period, func() {
		if tr.stopped {
			return
		}
		cur := tr.totalRx()
		gbps := float64(cur-tr.lastRx) * 8 / tr.Period.Seconds() / 1e9
		tr.lastRx = cur
		tr.Goodput.Add(tr.net.Now(), gbps)
		tr.schedule()
	})
}

// RecoveryTime reports how long after repairAt the fabric's goodput
// returned to frac of its pre-fault baseline and stayed there for sustain
// consecutive samples. The baseline is the mean of the last few samples
// strictly before faultAt. ok=false when the series never recovers (or has
// no pre-fault samples to form a baseline).
func (tr *Tracker) RecoveryTime(faultAt, repairAt simtime.Time, frac float64, sustain int) (simtime.Duration, bool) {
	if sustain < 1 {
		sustain = 1
	}
	base, ok := tr.baseline(faultAt)
	if !ok {
		return 0, false
	}
	target := frac * base
	run := 0
	for i := range tr.Goodput.Values {
		if tr.Goodput.Times[i] < repairAt {
			continue
		}
		if tr.Goodput.Values[i] >= target {
			run++
			if run == sustain {
				first := tr.Goodput.Times[i-(sustain-1)]
				d := first.Sub(repairAt)
				if d < 0 {
					d = 0
				}
				return d, true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

// baseline averages the last (up to) 10 samples before the fault.
func (tr *Tracker) baseline(faultAt simtime.Time) (float64, bool) {
	end := 0
	for end < len(tr.Goodput.Times) && tr.Goodput.Times[end] < faultAt {
		end++
	}
	if end == 0 {
		return 0, false
	}
	start := end - 10
	if start < 0 {
		start = 0
	}
	var sum float64
	for _, v := range tr.Goodput.Values[start:end] {
		sum += v
	}
	return sum / float64(end-start), true
}

// Snapshot captures the fabric's cumulative loss and back-pressure
// counters; subtract two snapshots to attribute losses to a fault window.
type Snapshot struct {
	// Blackholed counts packets lost to down links: in-flight blackholes
	// at every port plus routing blackholes (no alive ECMP candidate).
	Blackholed uint64
	// BufferDrops counts switch drops that are not routing blackholes
	// (shared-buffer overflow and WRED drops of non-ECT traffic).
	BufferDrops uint64
	// PFCPauses counts pause frames emitted by switches.
	PFCPauses uint64
}

// Snap reads the counters of every switch and host port in the fabric.
func Snap(fab *topo.Fabric) Snapshot {
	var hostPorts []*netsim.Port
	for _, h := range fab.Hosts {
		if h.Port != nil {
			hostPorts = append(hostPorts, h.Port)
		}
	}
	return Count(fab.Switches(), hostPorts)
}

// Count sums the loss and back-pressure counters of the given switches
// (with their ports) and host NIC ports: the one walk behind Snap and the
// sharded engine's fabric-wide snapshot.
func Count(switches []*netsim.Switch, hostPorts []*netsim.Port) Snapshot {
	var s Snapshot
	for _, sw := range switches {
		for _, p := range sw.Ports {
			s.Blackholed += p.BlackholedPackets
			s.PFCPauses += p.PauseTxEvents
		}
		s.Blackholed += sw.RouteBlackholes
		s.BufferDrops += sw.DropsTotal - sw.RouteBlackholes
	}
	for _, p := range hostPorts {
		s.Blackholed += p.BlackholedPackets
	}
	return s
}

// Sub returns the counter deltas s - prev.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		Blackholed:  s.Blackholed - prev.Blackholed,
		BufferDrops: s.BufferDrops - prev.BufferDrops,
		PFCPauses:   s.PFCPauses - prev.PFCPauses,
	}
}
