package hybrid

import (
	"testing"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

// TestDifferentialPerFlowFCT drives a 16-host leaf-spine permutation matrix
// through both engines and checks the tentpole's accuracy contract: every
// flow's hybrid FCT within 1% of the packet-level engine. The load is
// uncongested (each uplink carries at most three 25G flows), so the hybrid
// run keeps all flows analytic; the residual error is the packet engine's
// real store-and-forward interleaving jitter at shared fabric ports, which
// the closed form deliberately ignores below the demotion threshold.
func TestDifferentialPerFlowFCT(t *testing.T) {
	const (
		nHosts = 16
		size   = int64(1 * simtime.MB)
	)
	stagger := 5 * simtime.Microsecond

	// Packet-level reference run.
	pktFCT := make([]simtime.Duration, nHosts)
	{
		net := netsim.New(1)
		fab := topo.LeafSpine(net, 4, 4, 4, topo.DefaultConfig())
		params := dcqcn.DefaultParams(fab.Hosts[0].Port.Bandwidth)
		for i := 0; i < nHosts; i++ {
			i := i
			src, dst := fab.Hosts[i], fab.Hosts[(i+5)%nHosts]
			net.Q.CallAt(simtime.Time(simtime.Duration(i)*stagger), func(any) {
				dcqcn.Start(net, src, dst, size, params, func(f *dcqcn.Flow) {
					pktFCT[i] = f.End.Sub(f.Start)
				})
			}, nil)
		}
		net.RunUntil(simtime.Time(100 * simtime.Millisecond))
	}

	// Hybrid run: identical schedule, ids pre-drawn in the same order.
	hybFCT := make([]simtime.Duration, nHosts)
	var eng *Engine
	{
		net := netsim.New(1)
		fab := topo.LeafSpine(net, 4, 4, 4, topo.DefaultConfig())
		eng = New(DefaultConfig(), net.Q, net.Tracer)
		m := ForFabric(eng, fab)
		for i := 0; i < nHosts; i++ {
			i := i
			src, dst := fab.Hosts[i], fab.Hosts[(i+5)%nHosts]
			net.Q.CallAt(simtime.Time(simtime.Duration(i)*stagger), func(any) {
				id := net.NextFlowID()
				eng.StartFlow(m.Path(id, src, dst),
					FlowOpts{ID: uint64(id), Size: size, Prio: 3, Eligible: true},
					func(f *Flow, remaining int64) {
						t.Errorf("flow %d demoted with %d bytes left; matrix should stay analytic", i, remaining)
					},
					func(f *Flow, end simtime.Time) {
						hybFCT[i] = end.Sub(f.Start)
					})
			}, nil)
		}
		eng.StartTicker()
		net.RunUntil(simtime.Time(100 * simtime.Millisecond))
	}

	if eng.Stats.AnalyticFlows != nHosts {
		t.Fatalf("only %d/%d flows completed analytically (%+v)", eng.Stats.AnalyticFlows, nHosts, eng.Stats)
	}
	for i := 0; i < nHosts; i++ {
		if pktFCT[i] == 0 || hybFCT[i] == 0 {
			t.Fatalf("flow %d incomplete: packet %v hybrid %v", i, pktFCT[i], hybFCT[i])
		}
		err := float64(hybFCT[i]-pktFCT[i]) / float64(pktFCT[i])
		if err < 0 {
			err = -err
		}
		if err > 0.01 {
			t.Errorf("flow %d: hybrid FCT %v vs packet %v (%.3f%% > 1%%)",
				i, hybFCT[i], pktFCT[i], err*100)
		}
	}
}

// TestDifferentialConservationUnderChurn runs an oversubscribed wave on a
// star and checks fabric-wide byte conservation across every mode switch:
// each receiver gets exactly its flows' payload, and per-port delivered
// wire bytes (packet + analytic credit) account for every committed frame.
func TestDifferentialConservationUnderChurn(t *testing.T) {
	const senders = 4
	size := int64(2 * simtime.MB)
	net := netsim.New(7)
	fab := topo.Star(net, senders+1, topo.DefaultConfig())
	recv := fab.Hosts[senders]
	eng := New(DefaultConfig(), net.Q, net.Tracer)
	m := ForFabric(eng, fab)
	params := dcqcn.DefaultParams(fab.Hosts[0].Port.Bandwidth)

	done := 0
	var analyticWire uint64
	for i := 0; i < senders; i++ {
		src := fab.Hosts[i]
		// Staggered so the first flow fast-forwards alone before the wave
		// oversubscribes the receiver downlink and demotes everything.
		at := simtime.Time(simtime.Duration(i) * 50 * simtime.Microsecond)
		net.Q.CallAt(at, func(any) {
			id := net.NextFlowID()
			eng.StartFlow(m.Path(id, src, recv),
				FlowOpts{ID: uint64(id), Size: size, Prio: 3, Eligible: true},
				func(f *Flow, remaining int64) {
					if f.AnalyticPayload()+remaining != size {
						t.Errorf("split not conserved: %d + %d != %d", f.AnalyticPayload(), remaining, size)
					}
					analyticWire += uint64(f.wireOf(f.frames))
					dcqcn.StartSender(net, netsim.FlowID(f.ID), src, recv.ID(), remaining, params)
					dcqcn.StartReceiver(netsim.FlowID(f.ID), src.ID(), recv, remaining, params, func(*dcqcn.Receiver) {
						eng.PacketDone(f)
						done++
					})
				},
				func(*Flow, simtime.Time) { done++ })
		}, nil)
	}
	eng.StartTicker()
	net.RunUntil(simtime.Time(simtime.Second))

	if done != senders {
		t.Fatalf("%d/%d flows completed", done, senders)
	}
	if eng.Stats.Demotions == 0 {
		t.Fatal("wave never demoted the shared downlink; churn test proves nothing")
	}
	// The receiver downlink carried every flow: its packet bytes plus
	// analytic credit must equal the total wire bytes of all four flows.
	down := fab.Leaves[0].Ports[senders]
	if got := down.AnalyticTxBytes; got != analyticWire {
		t.Fatalf("downlink analytic credit %d != committed wire %d", got, analyticWire)
	}
	frames := (size + netsim.DefaultMTU - 1) / netsim.DefaultMTU
	perFlowWire := uint64(size + frames*netsim.DataHeaderBytes)
	if got, want := down.DeliveredBytes(), senders*perFlowWire; got != uint64(want) {
		t.Fatalf("downlink delivered %d wire bytes, want %d", got, want)
	}
}

// TestRenewalLoopFastForwards runs one renewing workload at packet and at
// hybrid fidelity over the same window: four senders per leaf of a 48-host
// fabric each restart a 1 MB flow to the same-indexed host on the next leaf
// as the last one ends. The hybrid run must execute under a fifth of the
// packet run's events and commit payload in closed form, and every demotion
// must split a flow's bytes exactly between its analytic and packet lives.
func TestRenewalLoopFastForwards(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	const leaves, senders = 6, 4
	size := int64(simtime.MB)
	cfg := topo.DefaultConfig()
	params := dcqcn.DefaultParams(cfg.HostBW)
	// run builds the fabric, hands every sender pair to the starter wire
	// returns, and counts the events of the 400 µs after a 100 µs warm-up.
	run := func(wire func(net *netsim.Network, fab *topo.Fabric) func(src, dst *netsim.Host)) uint64 {
		net := netsim.New(1)
		fab := topo.LeafSpine(net, leaves, 8, 4, cfg)
		start := wire(net, fab)
		for l := 0; l < leaves; l++ {
			for s := 0; s < senders; s++ {
				start(fab.HostsAt[l][s], fab.HostsAt[(l+1)%leaves][s])
			}
		}
		net.Q.RunBefore(simtime.Time(100 * simtime.Microsecond))
		before := net.Q.Processed()
		net.Q.RunBefore(simtime.Time(500 * simtime.Microsecond))
		return net.Q.Processed() - before
	}

	pktEvents := run(func(net *netsim.Network, _ *topo.Fabric) func(src, dst *netsim.Host) {
		return func(src, dst *netsim.Host) {
			var loop func()
			loop = func() { dcqcn.Start(net, src, dst, size, params, func(*dcqcn.Flow) { loop() }) }
			loop()
		}
	})

	var eng *Engine
	hybEvents := run(func(net *netsim.Network, fab *topo.Fabric) func(src, dst *netsim.Host) {
		eng = New(DefaultConfig(), net.Q, net.Tracer)
		mesh := ForFabric(eng, fab)
		eng.StartTicker()
		return func(src, dst *netsim.Host) {
			var loop func()
			demote := func(f *Flow, remaining int64) {
				if f.AnalyticPayload()+remaining != size {
					t.Errorf("flow %d split not conserved at demotion: %d + %d != %d", f.ID, f.AnalyticPayload(), remaining, size)
				}
				id := netsim.FlowID(f.ID)
				dcqcn.StartReceiver(id, src.ID(), dst, remaining, params, func(*dcqcn.Receiver) {
					eng.PacketDone(f)
					loop()
				})
				dcqcn.StartSender(net, id, src, dst.ID(), remaining, params)
			}
			done := func(*Flow, simtime.Time) { loop() }
			loop = func() {
				id := net.NextFlowID()
				eng.StartFlow(mesh.Path(id, src, dst),
					FlowOpts{ID: uint64(id), Size: size, Prio: params.Prio, Eligible: true}, demote, done)
			}
			loop()
		}
	})

	if pktEvents == 0 {
		t.Fatal("packet run executed no events")
	}
	if hybEvents >= pktEvents/5 {
		t.Fatalf("hybrid run executed %d events vs packet %d; the fast path is not fast-forwarding", hybEvents, pktEvents)
	}
	if eng.Stats.AnalyticFlows == 0 || eng.Stats.AnalyticPayload == 0 {
		t.Fatalf("no payload committed in closed form: %+v", eng.Stats)
	}
}
