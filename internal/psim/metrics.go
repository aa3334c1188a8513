package psim

import (
	"github.com/accnet/acc/internal/faults"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

// Sampler records fabric-wide delivered goodput (bytes arriving at host
// NICs) at barrier instants, the sharded twin of faults.Tracker: hook its
// OnBarrier into Engine.OnBarrier — or call it at the same barrier
// instants from a sequential baseline — and the same plan yields the same
// series at every shard count, because barriers fall at identical virtual
// times regardless of K.
type Sampler struct {
	//acclint:ignore snapcover construction config (sampling cadence)
	Period simtime.Duration

	Times []simtime.Time
	Gbps  []float64

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
	s.Times = append(s.Times, b)
	s.Gbps = append(s.Gbps, gbps)
	s.nextAt = b.Add(s.Period)
}

// Snap aggregates the engine's loss and back-pressure counters into the
// same shape as faults.Snap over a sequential fabric. Per-end attribution
// of link blackholes differs across layouts (a cross-shard in-flight loss
// is counted at the receiving end), but the fabric-wide sums compared here
// are identical.
func (e *Engine) Snap() faults.Snapshot {
	return faults.Count(e.switches(), e.HostPorts())
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
