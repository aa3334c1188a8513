package faults

import (
	"math/rand"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

// Telemetry configures collector-path faults for ACC tuners (see StaleDrop):
// observations delayed by StaleSlots monitoring intervals, and each window
// lost independently with probability DropProb.
type Telemetry struct {
	StaleSlots int
	DropProb   float64
}

// StaleDrop implements acc.TelemetryFault: it models a switch CPU too
// overloaded to serve the collector promptly (§4.3), delivering each
// queue's observation stream StaleSlots monitoring intervals late and
// losing each window independently with probability DropProb. During the
// first StaleSlots windows after attachment the oldest available
// observation is delivered (the collector's last known counters).
//
// Attach one StaleDrop per tuner: queue indices are tuner-local. All
// randomness comes from the seed passed at construction, so the fault
// sequence is reproducible.
type StaleDrop struct {
	cfg Telemetry
	rng *rand.Rand
	buf [][]acc.Observation // per-queue FIFO of pending observations

	// Drops and Delivered count windows lost and delivered (stale or not).
	Drops     uint64
	Delivered uint64
}

// NewStaleDrop builds a telemetry fault from a deterministic seed.
func NewStaleDrop(seed int64, cfg Telemetry) *StaleDrop {
	return &StaleDrop{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Sample implements acc.TelemetryFault.
func (f *StaleDrop) Sample(now simtime.Time, q int, obs acc.Observation) (acc.Observation, bool) {
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

// ApplyTelemetry installs an independent StaleDrop on every tuner, seeding
// each from the network RNG in tuner order (deterministic). It returns the
// installed faults so callers can read their counters.
func ApplyTelemetry(net *netsim.Network, tuners []*acc.Tuner, cfg Telemetry) []*StaleDrop {
	out := make([]*StaleDrop, len(tuners))
	for i, t := range tuners {
		out[i] = NewStaleDrop(net.Rng.Int63(), cfg)
		t.SetTelemetryFault(out[i])
	}
	return out
}
