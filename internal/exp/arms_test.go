package exp

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/red"
)

// armTap is the tap TestArmsShareWorkload installs for one experiment: a
// digest of each arm's workload, in the order the arms first draw or
// deploy. Every arm digests the workload-stream seeds it draws. An
// open-loop arm also digests every flow it starts as (src, dst, size,
// start); a closed-loop arm only those it starts at time zero, before any
// completion can pace it. The runners run serialized, so it takes no lock.
type armTap struct {
	closed bool
	arms   []*armRecord
	by     map[*netsim.Network]*armRecord
}

type armRecord struct {
	name, policy string
	workload     hash.Hash64
}

func (a *armTap) arm(net *netsim.Network) *armRecord {
	r := a.by[net]
	if r == nil {
		r = &armRecord{workload: fnv.New64a()}
		a.by[net] = r
		a.arms = append(a.arms, r)
	}
	return r
}

func (a *armTap) deploy(net *netsim.Network, p Policy) {
	var static red.Config
	if p.Static != nil {
		static, p.Static = *p.Static, nil
	}
	r := a.arm(net)
	r.name, r.policy = p.Name, fmt.Sprintf("%+v %+v", p, static)
}

func (a *armTap) flow(net *netsim.Network, src, dst *netsim.Host, size int64) {
	if !a.closed || net.Now() == 0 {
		fmt.Fprintf(a.arm(net).workload, "%d>%d:%d@%d ", src.ID(), dst.ID(), size, net.Now())
	}
}

func (a *armTap) stream(net *netsim.Network, seed int64) {
	fmt.Fprintf(a.arm(net).workload, "seed %d ", seed)
}

// closedLoop are the experiments whose flow start times follow
// completions, so arms legitimately start flows at different instants.
var closedLoop = map[string]bool{"fig6": true, "fig8": true, "fig9": true, "fig10": true}

// TestArmsShareWorkload: every arm of a comparison runs one workload,
// whatever its policy draws from the network's generator. Each registered
// experiment runs with the runners serialized (GOMAXPROCS 1), so its arms
// arrive in order, and a comparison is a run of arms with distinct
// policies. Its arms' workload digests (see armTap) must be equal. The
// closed-loop experiments need only time zero and the seeds, so they run
// shorter.
func TestArmsShareWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, l := range List() {
		id := l[0]
		o := DefaultOptions()
		o.Scale, o.OfflineEpisodes = 0.1, 4
		if closedLoop[id] {
			o.Scale = 0.001
		}
		a := &armTap{closed: closedLoop[id], by: map[*netsim.Network]*armRecord{}}
		tap = a
		_, err := Run(id, o)
		tap = nil
		if err != nil {
			t.Fatal(err)
		}
		var first *armRecord
		seen := map[string]bool{}
		for _, r := range a.arms {
			if r.policy == "" {
				continue // a network no policy runs on
			}
			if seen[r.policy] {
				first, seen = nil, map[string]bool{}
			}
			seen[r.policy] = true
			if first == nil {
				first = r
			} else if got, want := r.workload.Sum64(), first.workload.Sum64(); got != want {
				t.Errorf("%s: arm %s generated workload %016x, arm %s %016x", id, r.name, got, first.name, want)
			}
		}
	}
}
