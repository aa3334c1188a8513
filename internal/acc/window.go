package acc

import (
	"slices"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// window is the ΔT collector of §3.3 for one monitored egress queue: each
// sample turns the queue's cumulative counters into one interval's
// utilization, marked rate and average depth. D-ACC's tuner, the hill
// climber and C-ACC all read their telemetry through it.
type window struct {
	//acclint:ignore snapcover construction wiring: the owner's constructor on the rebuilt switch
	port *netsim.Port
	//acclint:ignore snapcover construction wiring: the owner's constructor on the rebuilt switch
	q *netsim.EgressQueue
	//acclint:ignore snapcover derived by the owner's constructor from the rebuilt port's DWRR weights
	share float64 // fraction of the port's line rate the queue is judged against

	lastTx       uint64
	lastMarked   uint64
	lastIntegral float64
}

// eachWindow calls fn with a collector for each ECN-enabled queue of sw
// whose traffic class is in prios (nil: every class), in port then queue
// order. With dwrr each queue is judged against its class's DWRR share of
// the port, so a 70%-weighted RDMA queue at its share reads as full
// utilization; without, against the whole port.
func eachWindow(sw *netsim.Switch, prios []int, dwrr bool, fn func(window)) {
	for _, p := range sw.Ports {
		sumW := 0
		for _, q := range p.Queues {
			sumW += q.Weight
		}
		for _, q := range p.Queues {
			if !q.ECNEnabled || len(prios) > 0 && !slices.Contains(prios, q.Prio) {
				continue
			}
			share := 1.0
			if dwrr && sumW > 0 {
				share = float64(q.Weight) / float64(sumW)
			}
			fn(window{port: p, q: q, share: share})
		}
	}
}

// sample closes the interval of length period that ends now. util and
// marked are the bytes sent and sent ECN-marked over it, as fractions of
// the queue's share of line rate, clamped to [0, 1]; avgQ is the mean
// queue depth in bytes; sent is the bytes sent.
func (w *window) sample(period simtime.Duration) (util, marked, avgQ float64, sent uint64) {
	sent = w.q.TxBytes - w.lastTx
	markDelta := w.q.TxMarkedBytes - w.lastMarked
	integ := w.q.ByteTimeIntegral()
	integDelta := integ - w.lastIntegral
	w.lastTx, w.lastMarked, w.lastIntegral = w.q.TxBytes, w.q.TxMarkedBytes, integ

	secs := period.Seconds()
	bw := float64(w.port.Bandwidth) * w.share
	util = clamp01(float64(sent) * 8 / (bw * secs))
	marked = clamp01(float64(markDelta) * 8 / (bw * secs))
	avgQ = integDelta / secs
	return util, marked, avgQ, sent
}

// state visits the collector's counter cursors.
func (w *window) state(v *codec.Visitor) {
	v.U64(&w.lastTx)
	v.U64(&w.lastMarked)
	v.F64(&w.lastIntegral)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
