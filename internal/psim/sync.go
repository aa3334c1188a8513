package psim

// Barrier-window synchronization. This file is the only concurrent code in
// the package — and, by design, the only place where goroutines touch
// simulation state. The goroutine that calls Run is the coordinator; it runs
// shard 0's windows itself and spawns one worker for each of shards 1…K−1,
// so a one-shard engine runs with no goroutine and no channel at all. The
// protocol is a strict alternation:
//
//	phase A (parallel):  the coordinator sends every worker the barrier
//	                     time, then runs shard 0's queue exclusively of the
//	                     barrier (RunBefore) while each worker does the same
//	                     for its shard; all of them buffer cross-shard
//	                     packets in their own outbox rows;
//	barrier:             the coordinator, its own window finished, receives
//	                     one done from every worker;
//	phase B (coordinator): the coordinator alone injects buffered packets
//	                     into receiving shards, then runs barrier hooks.
//
// Every shard-state access is therefore totally ordered. Shards 1…K−1: the
// coordinator's send on a worker's start channel happens-before the worker's
// window, whose end happens-before the coordinator's receive of its done,
// which precedes the exchange, the hooks and the next send. Shard 0: its
// window, the exchange and the hooks are one goroutine's program order, and
// no worker touches shard 0's queue, nodes or outbox rows inside a window —
// the same ownership rule that kept the workers apart. Determinism does not
// depend on goroutine scheduling at all — the merge position of an injected
// arrival is fixed by its (time, key), not by injection order — so the loop
// produces bit-identical results at any GOMAXPROCS, including 1.
// internal/lint/config.go carries the audited allowlist entry for this
// file's goroutines and channels.

import (
	"fmt"

	"github.com/accnet/acc/internal/simtime"
)

// Run advances all shards to exactly the horizon, exchanging cross-shard
// packets at every barrier. Barriers fall at multiples of the window with a
// final (shorter, still conservative) window ending at the horizon. It may
// be called repeatedly to extend a run.
func (e *Engine) Run(horizon simtime.Time) {
	if horizon <= e.now {
		return
	}
	starts, done := e.startWorkers()
	defer func() {
		for _, c := range starts {
			close(c)
		}
	}()

	own := e.Shards[0].Net.Q
	for e.now < horizon {
		b := e.now.Add(e.Window)
		if b > horizon {
			b = horizon
		}
		for _, c := range starts {
			c <- b
		}
		own.RunBefore(b)
		for range starts {
			<-done
		}
		e.now = b
		e.exchange()
		for _, h := range e.hooks {
			h(b)
		}
	}
}

// startWorkers spawns one goroutine for each shard after the first; a worker
// runs one window of its shard per barrier time received and reports it done.
// A one-shard engine gets none, and no channels.
func (e *Engine) startWorkers() ([]chan simtime.Time, chan struct{}) {
	workers := e.Shards[1:]
	if len(workers) == 0 {
		return nil, nil
	}
	starts := make([]chan simtime.Time, len(workers))
	done := make(chan struct{}, len(workers))
	for i, sh := range workers {
		start := make(chan simtime.Time, 1)
		starts[i] = start
		go func() {
			for b := range start {
				sh.Net.Q.RunBefore(b)
				done <- struct{}{}
			}
		}()
	}
	return starts, done
}

// exchange drains every outbox into the receiving shards. All workers are
// quiescent at the barrier, so the coordinator owns all shard state here.
// Drain order is fixed (dst-major, then src) but irrelevant to the result:
// each injected arrival lands at its keyed schedule position regardless of
// injection order.
func (e *Engine) exchange() {
	for dst := range e.Shards {
		for src := range e.Shards {
			box := e.outbox[src][dst]
			for i := range box {
				cp := &box[i]
				if cp.at < e.now {
					// A packet older than the barrier would be an event in
					// the receiving shard's past: the lookahead invariant
					// (window ≤ min cross-shard delay) is broken.
					panic(fmt.Sprintf("psim: conservative lookahead violated: arrival at %v behind barrier %v", cp.at, e.now))
				}
				cp.port.ScheduleRemoteArrival(cp.pkt, cp.at, cp.key)
			}
			e.outbox[src][dst] = box[:0]
		}
	}
}
