//go:build !race

package stats

import (
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

// TestAllocFreeMonitoredTick pins the sampling path at zero allocations in
// steady state: QueueMonitor rides the eventq typed-event fast path
// (pre-bound method values + CallAfter), so a monitored window — packet
// traffic plus several sampler ticks — must not allocate once the Series
// backing array is warm. Callers keep them warm with Series.Reset,
// which truncates without freeing.
func TestAllocFreeMonitoredTick(t *testing.T) {
	net := netsim.New(1)
	h1 := netsim.NewHost(net, "h1")
	h2 := netsim.NewHost(net, "h2")
	p1 := h1.AttachPort(25*simtime.Gbps, 600*simtime.Nanosecond, nil)
	p2 := h2.AttachPort(25*simtime.Gbps, 600*simtime.Nanosecond, nil)
	netsim.Connect(p1, p2)
	h2.Register(7, netsim.EndpointFunc(func(*netsim.Packet) {}))

	period := 10 * simtime.Microsecond
	qm := MonitorQueue(net, p1.Queues[0], period)

	window := func() {
		pkt := net.AllocPacket()
		pkt.Kind = netsim.KindData
		pkt.Flow = 7
		pkt.Src = h1.ID()
		pkt.Dst = h2.ID()
		pkt.Size = netsim.DefaultMTU + netsim.DataHeaderBytes
		pkt.ECT = true
		h1.Send(pkt)
		net.RunFor(4 * period)
		qm.Series.Reset()
	}
	// Warm the packet pool, event free list, and Series backing array.
	for i := 0; i < 8; i++ {
		window()
	}
	if avg := testing.AllocsPerRun(1000, window); avg != 0 {
		t.Fatalf("monitored window allocates %v/op, want 0", avg)
	}
	qm.Stop()
}
