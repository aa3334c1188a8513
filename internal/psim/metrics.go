package psim

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/topo"
)

// Sampler records fabric-wide delivered goodput (bytes arriving at host
// NICs), the signal the recovery metrics are computed from: a link failure
// shows up as a goodput dip, and reconvergence as the return to the
// pre-fault baseline. Hook its OnBarrier into Engine.OnBarrier — or call it
// at the same barrier instants from a sequential baseline, or from one
// event per period — and the same plan yields the same series at every
// shard count, because barriers fall at identical virtual times regardless
// of K.
type Sampler struct {
	//acclint:ignore snapcover construction config (sampling cadence)
	Period simtime.Duration

	Goodput stats.Series // delivered Gbps per sample

	//acclint:ignore snapcover construction wiring (sampled host ports)
	ports  []*netsim.Port
	last   uint64
	lastT  simtime.Time
	nextAt simtime.Time
}

// NewSampler samples the given host NIC ports every period (rounded up to
// the next barrier).
func NewSampler(ports []*netsim.Port, period simtime.Duration) *Sampler {
	s := &Sampler{Period: period, ports: ports, nextAt: simtime.Time(0).Add(period)}
	s.last = s.totalRx()
	return s
}

func (s *Sampler) totalRx() uint64 {
	var sum uint64
	for _, p := range s.ports {
		sum += p.RxBytesTotal
	}
	return sum
}

// OnBarrier takes a sample when a period boundary has been reached. All
// shards are quiescent at barrier time, so reading cross-shard counters here
// is race-free.
func (s *Sampler) OnBarrier(b simtime.Time) {
	if b < s.nextAt {
		return
	}
	cur := s.totalRx()
	elapsed := b.Sub(s.lastT)
	gbps := 0.0
	if elapsed > 0 {
		gbps = float64(cur-s.last) * 8 / elapsed.Seconds() / 1e9
	}
	s.last, s.lastT = cur, b
	s.Goodput.Add(b, gbps)
	s.nextAt = b.Add(s.Period)
}

// RecoveryTime reports how long after repairAt the fabric's goodput
// returned to frac of its pre-fault baseline and stayed there for sustain
// (at least 1) consecutive samples. The baseline is the mean of the last
// (up to) 10 samples strictly before faultAt. ok=false when the series
// never recovers, or has no pre-fault samples to form a baseline.
func (s *Sampler) RecoveryTime(faultAt, repairAt simtime.Time, frac float64, sustain int) (simtime.Duration, bool) {
	g := &s.Goodput
	end := 0
	for end < len(g.Times) && g.Times[end] < faultAt {
		end++
	}
	if end == 0 {
		return 0, false
	}
	base := stats.Series{Values: g.Values[max(end-10, 0):end]}
	target := frac * base.Avg()
	run := 0
	for i, t := range g.Times {
		if t < repairAt {
			continue
		}
		if g.Values[i] >= target {
			if run++; run == sustain {
				return max(g.Times[i-(sustain-1)].Sub(repairAt), 0), true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

// Losses are a fabric's cumulative loss and back-pressure counters;
// subtract two readings to attribute losses to a fault window.
type Losses struct {
	// Blackholed counts packets lost to down links: in-flight blackholes
	// at every port plus routing blackholes (no alive ECMP candidate).
	Blackholed uint64
	// BufferDrops counts switch drops that are not routing blackholes
	// (shared-buffer overflow and WRED drops of non-ECT traffic).
	BufferDrops uint64
	// PFCPauses counts pause frames emitted by switches.
	PFCPauses uint64
}

// Sub returns the counter deltas l - prev.
func (l Losses) Sub(prev Losses) Losses {
	return Losses{
		Blackholed:  l.Blackholed - prev.Blackholed,
		BufferDrops: l.BufferDrops - prev.BufferDrops,
		PFCPauses:   l.PFCPauses - prev.PFCPauses,
	}
}

// FabricLosses reads the counters of every switch and host port of a
// sequential fabric.
func FabricLosses(fab *topo.Fabric) Losses { return countLosses(fab.Switches(), fab.HostPorts()) }

// Losses reads the engine's counters in the same shape as FabricLosses
// over a sequential fabric. Per-end attribution of link blackholes differs
// across layouts (a cross-shard in-flight loss is counted at the receiving
// end), but the fabric-wide sums compared here are identical.
func (e *Engine) Losses() Losses { return countLosses(e.switches(), e.HostPorts()) }

// countLosses sums the loss and back-pressure counters of the given
// switches (with their ports) and host NIC ports.
func countLosses(switches []*netsim.Switch, hostPorts []*netsim.Port) Losses {
	var l Losses
	for _, sw := range switches {
		for _, p := range sw.Ports {
			l.Blackholed += p.BlackholedPackets
			l.PFCPauses += p.PauseTxEvents
		}
		l.Blackholed += sw.RouteBlackholes
		l.BufferDrops += sw.DropsTotal - sw.RouteBlackholes
	}
	for _, p := range hostPorts {
		l.Blackholed += p.BlackholedPackets
	}
	return l
}

// Digest is the FNV-64a digest of a finished run's bit-identity surface:
// per-flow receiver completion times, per-switch mark/drop counters, the
// fabric losses, smp's goodput series, and the event total. Two runs of one
// plan — replayed, resumed, forked or at another shard count — agree on it
// exactly.
func (e *Engine) Digest(app *Applied, smp *Sampler) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) { binary.BigEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	for _, end := range app.End {
		put(uint64(end))
	}
	marks, drops := e.SwitchTotals()
	for i := range marks {
		put(marks[i])
		put(drops[i])
	}
	l := e.Losses()
	put(l.Blackholed)
	put(l.BufferDrops)
	put(l.PFCPauses)
	for i, t := range smp.Goodput.Times {
		put(uint64(t))
		put(math.Float64bits(smp.Goodput.Values[i]))
	}
	put(e.Processed())
	return h.Sum64()
}

// switches returns every switch in global switch order: leaves, then
// spines.
func (e *Engine) switches() []*netsim.Switch {
	return append(append([]*netsim.Switch{}, e.Leaves...), e.Spines...)
}

// SwitchTotals returns per-switch (marks, drops) in global switch order
// — per-node counters the differential tests compare exactly across
// layouts.
func (e *Engine) SwitchTotals() (marks, drops []uint64) {
	for _, sw := range e.switches() {
		marks = append(marks, sw.MarksTotal)
		drops = append(drops, sw.DropsTotal)
	}
	return
}
