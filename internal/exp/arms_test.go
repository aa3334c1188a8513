package exp

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sync"
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

// armTap is the tap the tests install: for the arms of the experiments
// it records, a digest of each arm's workload and one of its run. Every
// arm digests the workload seeds it draws. An open-loop arm also digests
// every flow it starts as (src, dst, size, start); a closed-loop arm only
// those it starts at time zero, before any completion can pace it. The
// run digest covers what the arm's tables read: every flow it completes as
// (size, start, end), and for a closed-loop arm, which reports queues and
// throughput, each switch queue's transmitted and marked bytes at the end
// of the run. A Network runs on one goroutine, so only the lookup of its
// record takes the lock.
type armTap struct {
	mu   sync.Mutex
	want map[string]bool         // the experiments being recorded
	arms map[string][]*armRecord // by experiment, in the order runArms started them
	by   map[*netsim.Network]*armRecord
}

type armRecord struct {
	id, name      string
	comparison    int64 // the runArms call that ran the arm
	closed        bool
	workload, run hash.Hash64
}

var recorder = &armTap{want: map[string]bool{}, arms: map[string][]*armRecord{}, by: map[*netsim.Network]*armRecord{}}

func init() { tap = recorder }

// record runs fn, which runs experiment id, and returns the arms of id's
// Networks in the order they were made.
func (a *armTap) record(id string, fn func()) []*armRecord {
	a.mu.Lock()
	a.want[id] = true
	a.mu.Unlock()
	fn()
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.want, id)
	for net, r := range a.by {
		if r.id != id {
			continue
		}
		delete(a.by, net)
		if !r.closed {
			continue
		}
		for _, n := range net.Nodes() {
			if sw, ok := n.(*netsim.Switch); ok {
				for _, p := range sw.Ports {
					for _, q := range p.Queues {
						fmt.Fprintf(r.run, "%d/%d ", q.TxBytes, q.TxMarkedBytes)
					}
				}
			}
		}
	}
	mine := a.arms[id]
	delete(a.arms, id)
	return mine
}

func (a *armTap) of(net *netsim.Network) *armRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.by[net]
}

func (a *armTap) arm(net *netsim.Network, id string, comparison int64, p Policy, seeds []int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.want[id] {
		r := &armRecord{id: id, name: p.Name, comparison: comparison, closed: closedLoop[id], workload: fnv.New64a(), run: fnv.New64a()}
		fmt.Fprintf(r.workload, "seeds %d ", seeds)
		a.by[net] = r
		a.arms[id] = append(a.arms[id], r)
	}
}

func (a *armTap) flow(net *netsim.Network, src, dst *netsim.Host, size int64) {
	if r := a.of(net); r != nil && (!r.closed || net.Now() == 0) {
		fmt.Fprintf(r.workload, "%d>%d:%d@%d ", src.ID(), dst.ID(), size, net.Now())
	}
}

func (a *armTap) done(net *netsim.Network, size int64, start, end simtime.Time) {
	if r := a.of(net); r != nil {
		fmt.Fprintf(r.run, "%d:%d-%d ", size, start, end)
	}
}

// closedLoop are the experiments whose flow start times follow
// completions, so arms legitimately start flows at different instants.
var closedLoop = map[string]bool{"fig1": true, "fig6": true, "fig8": true, "fig9": true, "fig10": true}

// TestArmsShareWorkload: every arm of a comparison runs one workload,
// whatever its policy draws from the network's generator. The arms of one
// runArms call must have equal workload digests (see armTap). The
// closed-loop experiments need only time zero and the seeds, so they run
// shorter.
func TestArmsShareWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	for _, l := range List() {
		id := l[0]
		o := DefaultOptions()
		o.Scale, o.OfflineEpisodes = 0.1, 4
		if closedLoop[id] {
			o.Scale = 0.001
		}
		var err error
		arms := recorder.record(id, func() { _, err = Run(id, o) })
		if err != nil {
			t.Fatal(err)
		}
		first := map[int64]*armRecord{}
		for _, r := range arms {
			f, ok := first[r.comparison]
			if !ok {
				first[r.comparison] = r
			} else if got, want := r.workload.Sum64(), f.workload.Sum64(); got != want {
				t.Errorf("%s: arm %s generated workload %016x, arm %s %016x", id, r.name, got, f.name, want)
			}
		}
	}
}
