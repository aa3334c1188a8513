package stats

import (
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

// QueueMonitor samples an egress queue's depth on a fixed period.
//
// Sampling rides the eventq typed-event fast path: the monitor pre-binds
// one func(any) method value at construction and reschedules itself with
// CallAfter, so each tick reuses a pooled Event instead of allocating a
// closure. A long-running monitored simulation therefore stays
// allocation-flat apart from the Series' amortized backing-array growth
// (which callers can avoid with Series.Reset between windows).
type QueueMonitor struct {
	Queue  *netsim.EgressQueue
	Period simtime.Duration
	Series Series

	net     *netsim.Network
	tickFn  func(any)
	stopped bool
}

// MonitorQueue starts sampling q every period until Stop.
func MonitorQueue(net *netsim.Network, q *netsim.EgressQueue, period simtime.Duration) *QueueMonitor {
	m := &QueueMonitor{Queue: q, Period: period, net: net}
	m.tickFn = m.tick
	m.arm()
	return m
}

func (m *QueueMonitor) arm() { m.net.Q.CallAfter(m.Period, m.tickFn, nil) }

func (m *QueueMonitor) tick(any) {
	if m.stopped {
		return
	}
	m.Series.Add(m.net.Now(), float64(m.Queue.Bytes()))
	m.arm()
}

// Stop ends sampling.
func (m *QueueMonitor) Stop() { m.stopped = true }
