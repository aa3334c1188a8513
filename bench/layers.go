package main

import (
	"bytes"
	"math"
	"math/rand"
	"time"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/eventq"
	"github.com/accnet/acc/internal/exp"
	"github.com/accnet/acc/internal/hybrid"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/perf"
	"github.com/accnet/acc/internal/psim"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap"
	"github.com/accnet/acc/internal/snap/codec"
	"github.com/accnet/acc/internal/tcp"
	"github.com/accnet/acc/internal/topo"
	wl "github.com/accnet/acc/internal/workload"
)

// Per-layer metrics. Each is measured from outside, by timing calls into
// public functions, in the traced run of the one workload it explains;
// the step-derived ones reuse that run's best-of-R step table.

// sink keeps measured results observable so calls are not optimised away.
var sink float64

// fastest returns the smallest of three results of fn.
func fastest(fn func() float64) float64 {
	best := math.Inf(1)
	for try := 0; try < 3; try++ {
		best = math.Min(best, fn())
	}
	return best
}

// perOp returns the fastest of three timings of n calls of fn, in ns per
// call.
func perOp(n int, fn func()) float64 {
	return fastest(func() float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	})
}

func seconds(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// ----- paper-figs: exp, acc, rl, small-queue eventq, tcp, workload, obs -----

func (w *paperFigs) layers(r *recorder, m metrics) {
	size := w.cfg.size
	m["exp.pretrain_s"] = r.bestWall("exp.pretrain")
	for _, id := range append(append([]string{}, size.figs...), size.pinned...) {
		m["exp."+id+"_s"] = r.bestWall("exp." + id)
	}

	oc := acc.DefaultOfflineConfig()
	oc.Episodes, oc.EpisodeTime = 2, simtime.Duration(size.ops(10000))*simtime.Microsecond
	m["acc.offline_episode_s"] = seconds(func() { acc.TrainOffline(oc) }) / float64(oc.Episodes)

	tc := acc.DefaultConfig()
	ac := rl.DefaultAgentConfig(tc.StateDim(), len(tc.Template))
	rng := rand.New(rand.NewSource(w.cfg.seed))
	agent := rl.NewAgent(ac, rng)
	state := make([]float64, ac.StateDim)
	m["rl.params"] = float64(agent.Eval.NumParams())
	m["rl.forward_ns"] = perOp(size.ops(20000), func() { sink += agent.Eval.Forward(state)[0] })
	for i := 0; i < 4*ac.BatchSize; i++ {
		agent.Observe(rl.Transition{State: state, Action: i % ac.NumActions, Reward: rng.Float64(), Next: state})
	}
	m["rl.train_step_ns"] = perOp(size.ops(200), func() { sink += agent.TrainStep(rng) })

	// One tuner on an idle 13-host star: the per-period cost of collector,
	// busy/idle gate and configurator with no traffic to react to.
	net := netsim.New(w.cfg.seed)
	star := topo.Star(net, 13, topo.DefaultConfig())
	tuner := acc.NewTuner(net, star.Leaves[0], rl.NewAgent(ac, rng), tc)
	periods := size.ops(1000)
	m["acc.tick_ns"] = fastest(func() float64 {
		return seconds(func() { net.RunFor(simtime.Duration(periods) * tc.Period) }) * 1e9 / float64(periods)
	})
	tuner.Stop()

	m["eventq.call_ns_1k"] = eventqHold(1000, size.ops(200000), false)
	m["eventq.closure_ns_1k"] = eventqHold(1000, size.ops(200000), true)
	m["tcp.pkt_ns"] = transportPktNs(w.cfg, func(net *netsim.Network, src, dst *netsim.Host, size int64, done func()) {
		tcp.Start(net, src, dst, size, tcp.DefaultParams(), func(*tcp.Flow) { done() })
	})

	spec := wl.DefaultMixSpec()
	var tr *wl.Trace
	m["workload.generate_flows_per_s"] = 1 / fastest(func() float64 {
		var err error
		s := seconds(func() { tr, err = spec.Generate(w.cfg.seed) })
		if err != nil {
			r.fail("workload.Generate", err)
			return math.Inf(1)
		}
		return s / float64(len(tr.Flows))
	})
	if tr != nil {
		var buf bytes.Buffer
		if err := tr.EncodeBinary(&buf); err != nil {
			r.fail("workload.EncodeBinary", err)
		}
		m["workload.trace_decode_mb_s"] = float64(buf.Len()) / (1 << 20) / fastest(func() float64 {
			return seconds(func() {
				if _, err := wl.DecodeTrace(bytes.NewReader(buf.Bytes())); err != nil {
					r.fail("workload.DecodeTrace", err)
				}
			})
		})
	}

	tracer := obs.NewTracer(0)
	m["obs.emit_ns"] = perOp(size.ops(1000000), func() { tracer.Mark(simtime.Time(1), 1, 2, 3, 7, 1048) })
	// One figure again with the run's tracer attached, against its own
	// untraced best-of-R.
	fig := size.figs[len(size.figs)-1]
	o := w.options(w.cfg.seed)
	o.Obs = obs.NewRun(0)
	traced := seconds(func() {
		if _, err := exp.Run(fig, o); err != nil {
			r.fail("exp.Run traced "+fig, err)
		}
	})
	if base := r.bestWall("exp." + fig); base > 0 {
		m["obs.traced_overhead_pct"] = (traced/base - 1) * 100
	}
}

// eventqHold is the hold model: resident pending events in steady state,
// one op pops the earliest and schedules a replacement at a random
// distance. Mean spacing of ~50 ns keeps bucket occupancy in the line-rate
// regime at any size.
func eventqHold(resident, ops int, closure bool) float64 {
	rng := rand.New(rand.NewSource(1))
	q := eventq.New()
	call, fn := func(any) {}, func() {}
	horizon := 100 * resident
	schedule := func() {
		d := simtime.Duration(rng.Intn(horizon))
		if closure {
			q.After(d, fn)
		} else {
			q.CallAfter(d, call, nil)
		}
	}
	for i := 0; i < resident; i++ {
		schedule()
	}
	return perOp(ops, func() { q.Step(); schedule() })
}

// transportPktNs runs one line-rate flow across a 2-host star to
// completion and returns host ns per delivered packet.
func transportPktNs(cfg config, start func(net *netsim.Network, src, dst *netsim.Host, size int64, done func())) float64 {
	size := int64(cfg.size.ops(20 << 20))
	return fastest(func() float64 {
		net := netsim.New(cfg.seed)
		star := topo.Star(net, 2, topo.DefaultConfig())
		done := false
		start(net, star.Hosts[0], star.Hosts[1], size, func() { done = true })
		s := seconds(func() {
			for i := 0; !done && i < 1000; i++ {
				net.RunFor(simtime.Millisecond)
			}
		})
		if !done {
			return math.Inf(1)
		}
		return s * 1e9 / float64(size/netsim.DefaultMTU)
	})
}

// ----- fabric-packet: large-queue eventq, netsim, red, dcqcn, scaling -----

func (w *fabric) layers(r *recorder, m metrics) {
	t, s := r.reduce(nil), w.cfg.size
	if w.shards > 0 {
		w.layersSharded(r, t, m)
		return
	}
	m["topo.build_s_2304"] = r.bestWall("topo.build")
	m["fabric.warmup_s"] = r.bestWall("fabric.warmup")
	m["netsim.events_fabric"] = float64(w.events)
	var mallocs uint64
	for _, st := range r.steps {
		mallocs += st.mallocs
	}
	if w.events > 0 {
		m["netsim.ns_per_event_2304"] = t.wall * 1e9 / float64(w.events)
		m["netsim.allocs_per_event_2304"] = float64(mallocs) / float64(w.events)
	}

	o := perf.DefaultCoreOptions()
	o.Seed = w.cfg.seed
	core := perf.NewCore(o)
	core.Warmup(o.Warmup)
	m["netsim.ns_per_event_16"] = fastest(func() float64 {
		var events uint64
		s := seconds(func() { events = core.Advance(o.Window) })
		return s * 1e9 / float64(events)
	})
	m["netsim.scale_cost_ratio"] = m["netsim.ns_per_event_2304"] / m["netsim.ns_per_event_16"]

	m["eventq.call_ns_1m"] = eventqHold(s.ops(1000000), s.ops(200000), false)
	// Re-arm-dominated churn: half pacing-like (inside the calendar
	// window), half RTO-like (overflow structure).
	rng, q, fn := rand.New(rand.NewSource(3)), eventq.New(), func() {}
	var evs [64]*eventq.Event
	i := 0
	m["eventq.reset_ns"] = perOp(s.ops(200000), func() {
		k := rng.Intn(len(evs))
		d := simtime.Duration(500 + rng.Intn(5000))
		if k%2 == 1 {
			d = simtime.Duration(1000000 + rng.Intn(3000000))
		}
		evs[k] = q.ResetAfter(evs[k], d, fn)
		if i++; i%16 == 0 {
			q.RunUntil(q.Now().Add(100))
		}
	})

	net := netsim.New(w.cfg.seed)
	star := topo.Star(net, 2, topo.DefaultConfig())
	h1, h2 := star.Hosts[0], star.Hosts[1]
	h2.Register(7, netsim.EndpointFunc(func(*netsim.Packet) {}))
	m["netsim.hop_ns"] = perOp(s.ops(50000), func() {
		pkt := net.AllocPacket()
		pkt.Kind, pkt.Flow, pkt.Src, pkt.Dst = netsim.KindData, 7, h1.ID(), h2.ID()
		pkt.Size, pkt.ECT = netsim.DefaultMTU+netsim.DataHeaderBytes, true
		h1.Send(pkt)
		net.Run()
	})

	rc, qlen := red.VendorDefault(), 0
	m["red.admit_ns"] = perOp(s.ops(1000000), func() {
		sink += float64(rc.Admit(rc.Kmin+qlen, true, rng))
		qlen = (qlen + 4099) % (rc.Kmax - rc.Kmin)
	})
	m["dcqcn.pkt_ns"] = transportPktNs(w.cfg, func(net *netsim.Network, src, dst *netsim.Host, size int64, done func()) {
		dcqcn.Start(net, src, dst, size, dcqcn.DefaultParams(topo.DefaultConfig().HostBW), func(*dcqcn.Flow) { done() })
	})
}

// ----- fabric-sharded: psim -----

func (w *fabric) layersSharded(r *recorder, t totals, m metrics) {
	s := w.cfg.size
	m["psim.build_s_2304"] = r.bestWall("psim.build")
	m["psim.window_ns_k2"] = idleWindowNs(w.cfg, w.shards)
	if w.eng == nil || t.wall == 0 {
		return
	}
	m["psim.windows"] = math.Ceil(float64(s.slice)/float64(w.eng.Window)) * float64(s.slices)
	// The sequential side is the cross-check's single repetition, so the
	// two ratios carry its noise; the end-to-end rows are the tracked ones.
	m["psim.speedup"] = w.seq.wall / t.wall
	if w.seq.cpu > 0 {
		m["psim.cpu_ratio"] = t.cpu / w.seq.cpu
	}
	m["psim.idle_cpu_share"] = 1 - t.cpu/(float64(w.shards)*t.wall)
	var max, sum float64
	for _, n := range w.shardEvents {
		max = math.Max(max, float64(n))
		sum += float64(n)
	}
	if sum > 0 {
		m["psim.shard_imbalance"] = max * float64(len(w.shardEvents)) / sum
	}
}

// idleWindowNs is the cost of one barrier window with nothing to simulate:
// worker hand-off, exchange and hooks on an idle k-shard engine.
func idleWindowNs(cfg config, k int) float64 {
	eng := psim.Build(psim.Config{NLeaf: 4, HostsPerLeaf: 4, NSpine: 2, Shards: k, Seed: cfg.seed, Topo: topo.DefaultConfig()})
	windows := cfg.size.ops(10000)
	return fastest(func() float64 {
		until := eng.Now().Add(simtime.Duration(windows) * eng.Window)
		return seconds(func() { eng.Run(until) }) * 1e9 / float64(windows)
	})
}

// ----- sweep-fork: snap, codec, sweep -----

func (w *sweepFork) layers(r *recorder, m metrics) {
	t := r.reduce(nil)
	n := float64(w.cfg.size.branches)
	fork, tail := r.sumBest("fork-"), r.sumBest("tail-")
	m["snap.encode_s"] = r.bestWall("snap.encode")
	m["snap.image_mb"] = float64(len(w.image)) / (1 << 20)
	m["snap.fork_s"] = fork
	m["sweep.tail_s"] = tail
	// The rebuild half of a fork is snap.Build of the embedded scenario;
	// the overlay half is what remains.
	sc := w.scenario()
	m["snap.build_s"] = n * fastest(func() float64 {
		return seconds(func() {
			if _, err := snap.Build(sc); err != nil {
				r.fail("snap.Build", err)
			}
		})
	})
	m["snap.overlay_s"] = fork - m["snap.build_s"]
	if fork+tail > 0 {
		// Per branch: a cold run pays the whole set-up, a fork does not.
		m["sweep.warm_gain"] = (t.setup + tail/n) / ((fork + tail) / n)
	}
	m["psim.window_ns_k1"] = idleWindowNs(w.cfg, 1)

	rng := rand.New(rand.NewSource(w.cfg.seed))
	words := w.cfg.size.ops(1 << 19)
	xs, us := make([]float64, words), make([]uint64, words)
	for i := range xs {
		xs[i], us[i] = rng.NormFloat64(), rng.Uint64()>>uint(rng.Intn(64))
	}
	var data []byte
	write := fastest(func() float64 {
		return seconds(func() {
			enc := codec.NewWriter()
			enc.F64s(xs)
			for _, u := range us {
				enc.U64(u)
			}
			data = enc.Finish()
		})
	})
	read := fastest(func() float64 {
		return seconds(func() {
			dec, err := codec.NewReader(data)
			if err != nil {
				r.fail("codec.NewReader", err)
				return
			}
			sink += float64(len(dec.F64s()))
			for range us {
				sink += float64(dec.U64() & 1)
			}
			if err := dec.Err(); err != nil {
				r.fail("codec read", err)
			}
		})
	})
	mb := float64(len(data)) / (1 << 20)
	m["codec.write_mb_s"], m["codec.read_mb_s"] = mb/write, mb/read
}

// ----- hybrid-mix: hybrid -----

func (w *hybridMix) layers(r *recorder, m metrics) {
	if w.world != nil && w.world.Hyb != nil {
		st := w.world.Hyb.Stats
		if st.FlowsStarted > 0 {
			m["hybrid.analytic_share"] = float64(st.AnalyticFlows) / float64(st.FlowsStarted)
		}
		m["hybrid.packet_flows"] = float64(st.PacketFlows)
		m["hybrid.demotions"] = float64(st.Demotions)
		m["hybrid.ticks"] = float64(st.Ticks)
	}

	// 1000 flows at a sixteenth of line rate across 128 hosts: every link
	// stays under the demotion trigger, so all of them advance in closed
	// form and a tick is pure water-filling.
	flows := w.cfg.size.ops(1000)
	tc := topo.DefaultConfig()
	net := netsim.New(w.cfg.seed)
	fab := topo.LeafSpine(net, 8, 16, 4, tc)
	now := simtime.Time(0)
	cfg := hybrid.DefaultConfig()
	eng := hybrid.NewBarrier(cfg, func() simtime.Time { return now }, nil)
	mesh := hybrid.ForFabric(eng, fab)
	demoted := 0
	toPacket := func(*hybrid.Flow, int64) { demoted++ }
	done := func(*hybrid.Flow, simtime.Time) {}
	m["hybrid.start_flow_ns"] = seconds(func() {
		for i := 0; i < flows; i++ {
			id := net.NextFlowID()
			src, dst := fab.Hosts[i%len(fab.Hosts)], fab.Hosts[(i+16)%len(fab.Hosts)]
			//acclint:ignore barriermut single-goroutine timing of an engine private to this function; no shard window exists
			eng.StartFlow(mesh.Path(id, src, dst),
				hybrid.FlowOpts{ID: uint64(id), Size: 1 << 30, Demand: tc.HostBW / 16, Eligible: true}, toPacket, done)
		}
	}) * 1e9 / float64(flows)
	m["hybrid.tick_ns"] = perOp(w.cfg.size.ops(2000), func() {
		now = now.Add(cfg.Window)
		//acclint:ignore barriermut single-goroutine timing of an engine private to this function; no shard window exists
		eng.Tick(now)
	})
	r.check("hybrid micro stays analytic", demoted == 0, "%d of %d flows demoted", demoted, flows)
}
