package acc

import (
	"slices"

	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support. Tuners and Systems are restored by overlay: the world
// reconstructs them with the same constructor calls (drawing the same
// construction-time RNG values, assigning the same event sequence
// numbers), the restored eventq wipes the freshly armed timers, and the
// state walk fast-forwards the tuner's private RNG stream, overlays the
// per-queue learning state, and re-arms the ΔT tick at its recorded
// (time, seq) slot.

// state visits the tuner's dynamic state: RNG position, counters, tick
// timer slot, and per-queue collector/learning state. The agent is visited
// by its owner (System.State) because agents may be shared across tuners.
func (t *Tuner) state(v *codec.Visitor) {
	v.Tag("acc-tuner")
	t.rngSrc.State(v)
	v.Int(&t.ticks)
	v.U64(&t.Inferences)
	v.U64(&t.Skipped)
	v.U64(&t.TrainRuns)
	v.U64(&t.TelemetryDrops)
	v.Bool(&t.stopped)
	t.Net.Q.Timer(v, &t.tickEv, t.tickFn)
	n := len(t.queues)
	if v.Int(&n); n != len(t.queues) {
		v.Fail("tuner monitors %d queues, snapshot has %d", len(t.queues), n)
	}
	if v.Err() != nil {
		return
	}
	for _, qs := range t.queues {
		if qs.state(v, t.Cfg.HistoryK); v.Err() != nil {
			return
		}
	}
}

// state visits one monitored queue's collector and learning state; reading,
// its history slots and previous state are shared rows (F64sPacked).
func (qs *queueState) state(v *codec.Visitor, historyK int) {
	h := v.Count("queue history length", len(qs.hist), 1)
	if h > historyK {
		v.Fail("queue history length %d out of range", h)
		return
	}
	if v.Reading() {
		qs.hist = slices.Grow(qs.hist[:0], h)[:h]
	}
	for i := range qs.hist {
		v.F64sPacked(&qs.hist[i])
	}
	prev := qs.prevState != nil
	if v.Bool(&prev); prev {
		v.F64sPacked(&qs.prevState)
	} else if v.Reading() {
		qs.prevState = nil
	}
	v.Int(&qs.prevAction)
	v.Int(&qs.action)
	qs.window.state(v)
	v.F64(&qs.lastReward)
	v.Int(&qs.sameReward)
	v.Bool(&qs.idle)
	qs.KminTrace.State(v)
	qs.RewardTrace.State(v)
}

// State visits the whole deployment's dynamic state: the exchange loop,
// the global replay, every agent, and every tuner.
func (s *System) State(v *codec.Visitor) {
	v.Tag("acc-system")
	v.U64(&s.Exchanges)
	v.Bool(&s.stopped)
	s.Net.Q.Timer(v, &s.exchEv, s.exchFn)
	s.Global.State(v)
	for _, t := range s.Tuners {
		t.Agent.State(v)
	}
	for _, t := range s.Tuners {
		t.state(v)
	}
}
