package workload

import (
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

// AllReduceConfig models ring all-reduce collectives (Horovod-style
// distributed training, and the dominant communication pattern of the HPC
// workloads — Linpack, Quantum Espresso — the paper's offline training set
// includes): every node simultaneously sends a chunk to its ring successor,
// for 2·(N−1) steps per collective.
type AllReduceConfig struct {
	Nodes []*netsim.Host
	// Bytes is the total gradient/tensor volume per node per collective.
	Bytes int64
	// ComputeTime elapses between collectives.
	ComputeTime simtime.Duration
	Start       StartFlowFunc
}

// AllReduceJob is a running collective loop.
type AllReduceJob struct {
	jobStats
	cfg AllReduceConfig
}

// RunAllReduce starts the collective loop: each round performs 2(N−1)
// synchronized ring steps, then waits ComputeTime.
func RunAllReduce(net *netsim.Network, cfg AllReduceConfig) *AllReduceJob {
	j := &AllReduceJob{jobStats: newJobStats(net, cfg.ComputeTime), cfg: cfg}
	j.round()
	return j
}

func (j *AllReduceJob) round() {
	if j.stopped || len(j.cfg.Nodes) < 2 {
		return
	}
	n := len(j.cfg.Nodes)
	steps := 2 * (n - 1)
	chunk := j.cfg.Bytes / int64(n)
	if chunk < 1 {
		chunk = 1
	}
	t0 := j.net.Now()
	var step func(s int)
	step = func(s int) {
		if j.stopped {
			return
		}
		if s == steps {
			j.finishRound(t0, j.round)
			return
		}
		// All nodes transfer one chunk to their ring successor; the step
		// completes when every transfer lands (bulk-synchronous).
		remaining := n
		for i, src := range j.cfg.Nodes {
			dst := j.cfg.Nodes[(i+1)%n]
			j.cfg.Start(src, dst, chunk, func() {
				remaining--
				if remaining == 0 {
					step(s + 1)
				}
			})
		}
	}
	step(0)
}
