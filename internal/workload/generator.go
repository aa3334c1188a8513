package workload

import (
	"math/rand"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

// StartFlowFunc launches a transport flow; transports (DCQCN, TCP) are
// plugged in by the experiment harness. onDone runs at completion.
type StartFlowFunc func(src, dst *netsim.Host, size int64, onDone func())

// PoissonConfig drives an open-loop load generator: flows arrive as a
// Poisson process sized from a CDF, with uniformly random source and
// destination hosts (src != dst), targeting a fraction of the aggregate
// host-link capacity — the standard methodology of the paper's §5.4.
type PoissonConfig struct {
	Hosts  []*netsim.Host
	Sizes  CDF
	Load   float64      // fraction of aggregate host bandwidth, e.g. 0.6
	HostBW simtime.Rate // per-host link rate
	Start  StartFlowFunc
}

// PoissonGen is a running generator.
type PoissonGen struct {
	cfg     PoissonConfig
	net     *netsim.Network
	rng     *rand.Rand
	lambda  float64 // arrivals per second across the cluster
	stopped bool

	Started int // flows launched
	Bytes   int64
}

// StartPoisson begins generating flows immediately, from a stream of its
// own seeded with seed, so that adding monitors does not perturb traffic.
// Arms of a comparison draw seed from net.Rng before deploying a policy,
// which draws there too.
func StartPoisson(net *netsim.Network, seed int64, cfg PoissonConfig) *PoissonGen {
	mean := cfg.Sizes.Mean()
	n := float64(len(cfg.Hosts))
	// Aggregate arrival rate: load × n × BW / (8 × mean flow size).
	lambda := cfg.Load * n * float64(cfg.HostBW) / (8 * mean)
	g := &PoissonGen{
		cfg:    cfg,
		net:    net,
		rng:    rand.New(rand.NewSource(seed)),
		lambda: lambda,
	}
	g.scheduleNext()
	return g
}

// Stop halts future arrivals (in-flight flows continue).
func (g *PoissonGen) Stop() { g.stopped = true }

func (g *PoissonGen) scheduleNext() {
	gap := simtime.Duration(g.rng.ExpFloat64() / g.lambda * float64(simtime.Second))
	g.net.Q.After(gap, func() {
		if g.stopped {
			return
		}
		g.emit()
		g.scheduleNext()
	})
}

func (g *PoissonGen) emit() {
	hosts := g.cfg.Hosts
	si := g.rng.Intn(len(hosts))
	di := g.rng.Intn(len(hosts) - 1)
	if di >= si {
		di++
	}
	size := g.cfg.Sizes.Sample(g.rng)
	g.Started++
	g.Bytes += size
	g.cfg.Start(hosts[si], hosts[di], size, nil)
}

// IncastConfig describes an N-to-1 synchronized burst: each of Senders
// opens Flows flows of Size bytes to the single receiver.
type IncastConfig struct {
	Senders  []*netsim.Host
	Receiver *netsim.Host
	Flows    int // flows per sender
	Size     int64
	Start    StartFlowFunc
}

// RunIncast launches the burst at the current virtual time and invokes
// onAllDone when every flow completes.
func RunIncast(net *netsim.Network, cfg IncastConfig, onAllDone func()) {
	total := len(cfg.Senders) * cfg.Flows
	done := 0
	for _, s := range cfg.Senders {
		for i := 0; i < cfg.Flows; i++ {
			cfg.Start(s, cfg.Receiver, cfg.Size, func() {
				done++
				if done == total && onAllDone != nil {
					onAllDone()
				}
			})
		}
	}
}

// Phase describes one segment of a time-varying traffic schedule (Figure 6:
// "randomly change the number of flows and the number of Incast senders").
type Phase struct {
	Duration simtime.Duration
	Run      func() // starts the phase's traffic; previous phase's flows drain naturally
}

// RunPhases executes phases back to back.
func RunPhases(net *netsim.Network, phases []Phase) {
	var at simtime.Duration
	for _, ph := range phases {
		ph := ph
		net.Q.After(at, ph.Run)
		at += ph.Duration
	}
}

// ExpJitter returns a deterministic exponential jitter helper bound to rng.
func ExpJitter(rng *rand.Rand, mean simtime.Duration) simtime.Duration {
	d := simtime.Duration(rng.ExpFloat64() * float64(mean))
	if d <= 0 {
		d = 1
	}
	if float64(d) > 20*float64(mean) {
		d = 20 * mean
	}
	return d
}
