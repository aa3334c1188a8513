package acc

import (
	"github.com/accnet/acc/internal/eventq"
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support. Tuners and Systems are restored by overlay: the world
// reconstructs them with the same constructor calls (drawing the same
// construction-time RNG values, assigning the same event sequence
// numbers), the restored eventq wipes the freshly armed timers, and
// RestoreState fast-forwards the tuner's private RNG stream, overlays the
// per-queue learning state, and re-arms the ΔT tick at its recorded
// (time, seq) slot.

// SaveState writes the tuner's dynamic state: RNG position, counters, tick
// timer slot, and per-queue collector/learning state. The agent is saved
// separately by its owner (System.SaveState, or the world for a standalone
// tuner) because agents may be shared across tuners.
func (t *Tuner) SaveState(w *codec.Writer) {
	w.Tag("acc-tuner")
	w.U64(t.rngSrc.Draws())
	w.Int(t.ticks)
	w.U64(t.Inferences)
	w.U64(t.Skipped)
	w.U64(t.TrainRuns)
	w.U64(t.TelemetryDrops)
	w.Bool(t.stopped)
	eventq.SaveTimer(w, t.tickEv)
	w.Int(len(t.queues))
	for _, qs := range t.queues {
		w.Int(len(qs.hist))
		for _, slot := range qs.hist {
			w.F64s(slot)
		}
		w.Bool(qs.prevState != nil)
		if qs.prevState != nil {
			w.F64s(qs.prevState)
		}
		w.Int(qs.prevAction)
		w.Int(qs.action)
		w.U64(qs.lastTx)
		w.U64(qs.lastMarked)
		w.F64(qs.lastIntegral)
		w.F64(qs.lastReward)
		w.Int(qs.sameReward)
		w.Bool(qs.idle)
		qs.KminTrace.SaveState(w)
		qs.RewardTrace.SaveState(w)
	}
}

// RestoreState overlays saved state onto a freshly constructed tuner for
// the same switch and config.
func (t *Tuner) RestoreState(r *codec.Reader) {
	r.Expect("acc-tuner")
	if err := t.rngSrc.SkipTo(r.U64()); err != nil {
		r.Fail("tuner rng: %v", err)
		return
	}
	t.ticks = r.Int()
	t.Inferences = r.U64()
	t.Skipped = r.U64()
	t.TrainRuns = r.U64()
	t.TelemetryDrops = r.U64()
	t.stopped = r.Bool()
	t.tickEv = t.Net.Q.RestoreTimer(r, t.tickFn)
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n != len(t.queues) {
		r.Fail("tuner monitors %d queues, snapshot has %d", len(t.queues), n)
		return
	}
	// Every history slot and previous state of the tuner is a window of one
	// arena, sized for full histories: one allocation per tuner.
	arena := make([]float64, 0, min(len(t.queues)*2*t.Cfg.StateDim(), r.Remaining()/8))
	for _, qs := range t.queues {
		h := r.Int()
		if r.Err() != nil || h < 0 || h > t.Cfg.HistoryK {
			r.Fail("queue history length %d out of range", h)
			return
		}
		qs.hist = qs.hist[:0]
		for i := 0; i < h; i++ {
			at := len(arena)
			arena = r.F64sInto(arena)
			qs.hist = append(qs.hist, arena[at:len(arena):len(arena)])
		}
		if r.Bool() {
			at := len(arena)
			arena = r.F64sInto(arena)
			qs.prevState = arena[at:len(arena):len(arena)]
		} else {
			qs.prevState = nil
		}
		qs.prevAction = r.Int()
		qs.action = r.Int()
		qs.lastTx = r.U64()
		qs.lastMarked = r.U64()
		qs.lastIntegral = r.F64()
		qs.lastReward = r.F64()
		qs.sameReward = r.Int()
		qs.idle = r.Bool()
		qs.KminTrace.RestoreState(r)
		qs.RewardTrace.RestoreState(r)
		if r.Err() != nil {
			return
		}
	}
}

// SaveState writes the whole deployment's dynamic state: the exchange
// loop, the global replay, every agent (once, when shared), and every
// tuner.
func (s *System) SaveState(w *codec.Writer) {
	w.Tag("acc-system")
	w.U64(s.Exchanges)
	w.Bool(s.stopped)
	eventq.SaveTimer(w, s.exchEv)
	s.Global.SaveState(w)
	if s.Cfg.ShareModel {
		s.Tuners[0].Agent.SaveState(w)
	} else {
		for _, t := range s.Tuners {
			t.Agent.SaveState(w)
		}
	}
	for _, t := range s.Tuners {
		t.SaveState(w)
	}
}

// RestoreState overlays saved state onto a freshly constructed System with
// the same switches and config.
func (s *System) RestoreState(r *codec.Reader) {
	r.Expect("acc-system")
	s.Exchanges = r.U64()
	s.stopped = r.Bool()
	s.exchEv = s.Net.Q.RestoreTimer(r, s.exchFn)
	s.Global.RestoreState(r)
	if s.Cfg.ShareModel {
		s.Tuners[0].Agent.RestoreState(r)
	} else {
		for _, t := range s.Tuners {
			t.Agent.RestoreState(r)
		}
	}
	for _, t := range s.Tuners {
		t.RestoreState(r)
	}
}
