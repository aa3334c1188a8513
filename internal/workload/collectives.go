package workload

// AI-fabric collective patterns beyond the ring all-reduce (allreduce.go):
// binary-tree all-reduce (reduce up, broadcast down — latency-optimal for
// small tensors), MoE-style personalized all-to-all (every expert exchanges
// a shard with every other, the dominant pattern of mixture-of-experts
// layers), and pipeline-parallel wavefront traffic (microbatches marching
// through stages, with the fill/drain bubbles pipeline schedules exhibit).
// All are closed-loop jobs on a sequential Network, driven through the same
// StartFlowFunc seam as the generators — so they compose with background
// spec traffic and record through Recorder.RecordFlow like any other flow
// source.

import (
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

// jobStats is the common bookkeeping of a running collective loop.
type jobStats struct {
	net         *netsim.Network
	stopped     bool
	startedAt   simtime.Time
	computeTime simtime.Duration

	// Rounds counts completed collectives.
	Rounds int
	// StepTimes records each collective's duration.
	StepTimes []simtime.Duration
}

func newJobStats(net *netsim.Network, computeTime simtime.Duration) jobStats {
	return jobStats{net: net, startedAt: net.Now(), computeTime: computeTime, StepTimes: make([]simtime.Duration, 0, collectiveStepCap)}
}

// collectiveStepCap pre-sizes StepTimes so steady-state rounds don't grow
// the slice inside the event loop.
const collectiveStepCap = 64

// Stop ends the loop after the current round.
func (j *jobStats) Stop() { j.stopped = true }

// RoundsPerSec returns the collective rate so far; zero before the first
// round completes (and at zero elapsed virtual time).
func (j *jobStats) RoundsPerSec() float64 {
	if j.Rounds == 0 {
		return 0
	}
	el := j.net.Now().Sub(j.startedAt).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(j.Rounds) / el
}

// finishRound records one completed collective and schedules the next.
func (j *jobStats) finishRound(t0 simtime.Time, next func()) {
	j.Rounds++
	j.StepTimes = append(j.StepTimes, j.net.Now().Sub(t0))
	j.net.Q.After(j.computeTime, next)
}

// ----- tree all-reduce -----

// TreeAllReduceConfig models a binary-tree all-reduce: ceil(log2 N) reduce
// phases combining partial sums up the tree, then the mirror broadcast
// phases fanning the result back down. Versus the ring, step count is
// logarithmic but per-phase transfers carry the full tensor — the classic
// small-tensor/latency-bound trade.
type TreeAllReduceConfig struct {
	Nodes []*netsim.Host
	// Bytes is the tensor volume each edge of the tree carries.
	Bytes int64
	// ComputeTime elapses between collectives.
	ComputeTime simtime.Duration
	Start       StartFlowFunc
}

// TreeAllReduceJob is a running tree all-reduce loop.
type TreeAllReduceJob struct {
	jobStats
	cfg TreeAllReduceConfig
}

// RunTreeAllReduce starts the collective loop.
func RunTreeAllReduce(net *netsim.Network, cfg TreeAllReduceConfig) *TreeAllReduceJob {
	j := &TreeAllReduceJob{jobStats: newJobStats(net, cfg.ComputeTime), cfg: cfg}
	j.round()
	return j
}

func (j *TreeAllReduceJob) round() {
	if j.stopped || len(j.cfg.Nodes) < 2 {
		return
	}
	n := len(j.cfg.Nodes)
	bytes := j.cfg.Bytes
	if bytes < 1 {
		bytes = 1
	}
	levels := 0
	for 1<<levels < n {
		levels++
	}
	t0 := j.net.Now()
	// Phases 0..levels-1 reduce: node i with i mod 2^(s+1) == 2^s sends to
	// i - 2^s. Phases levels..2*levels-1 broadcast: the mirror transfers,
	// reversed. Each phase is bulk-synchronous.
	var phase func(p int)
	phase = func(p int) {
		if j.stopped {
			return
		}
		if p == 2*levels {
			j.finishRound(t0, j.round)
			return
		}
		s := p
		reduce := true
		if p >= levels {
			s = 2*levels - 1 - p
			reduce = false
		}
		stride := 1 << s
		remaining := 0
		// Count first so a straggler finishing synchronously can't complete
		// the phase before all transfers have launched.
		for i := stride; i < n; i += 2 * stride {
			remaining++
		}
		if remaining == 0 {
			phase(p + 1)
			return
		}
		for i := stride; i < n; i += 2 * stride {
			child, parent := j.cfg.Nodes[i], j.cfg.Nodes[i-stride]
			src, dst := child, parent
			if !reduce {
				src, dst = parent, child
			}
			j.cfg.Start(src, dst, bytes, func() {
				remaining--
				if remaining == 0 {
					phase(p + 1)
				}
			})
		}
	}
	phase(0)
}

// ----- MoE all-to-all -----

// AllToAllConfig models the personalized all-to-all of mixture-of-experts
// layers: each round, every node sends a distinct 1/N shard of Bytes to
// every other node simultaneously — N(N−1) concurrent flows stressing the
// full bisection.
type AllToAllConfig struct {
	Nodes []*netsim.Host
	// Bytes is the total per-node exchange volume per round; each peer
	// receives Bytes/N of it.
	Bytes int64
	// ComputeTime elapses between rounds.
	ComputeTime simtime.Duration
	Start       StartFlowFunc
}

// AllToAllJob is a running all-to-all loop.
type AllToAllJob struct {
	jobStats
	cfg AllToAllConfig
}

// RunAllToAll starts the exchange loop.
func RunAllToAll(net *netsim.Network, cfg AllToAllConfig) *AllToAllJob {
	j := &AllToAllJob{jobStats: newJobStats(net, cfg.ComputeTime), cfg: cfg}
	j.round()
	return j
}

func (j *AllToAllJob) round() {
	if j.stopped || len(j.cfg.Nodes) < 2 {
		return
	}
	n := len(j.cfg.Nodes)
	shard := j.cfg.Bytes / int64(n)
	if shard < 1 {
		shard = 1
	}
	t0 := j.net.Now()
	remaining := n * (n - 1)
	done := func() {
		remaining--
		if remaining == 0 {
			j.finishRound(t0, j.round)
		}
	}
	for i, src := range j.cfg.Nodes {
		for k, dst := range j.cfg.Nodes {
			if k == i {
				continue
			}
			j.cfg.Start(src, dst, shard, done)
		}
	}
}

// ----- pipeline parallel -----

// PipelineConfig models pipeline-parallel training traffic: MicroBatches
// activations marching forward through the stage chain, then gradients
// marching back. Transfers advance in diagonal wavefronts (microbatch m
// crosses the s→s+1 edge in wave m+s), which reproduces the fill/drain
// bubbles of a synchronous pipeline schedule: early and late waves carry
// few transfers, peak waves carry min(M, P−1).
type PipelineConfig struct {
	// Stages are the pipeline stages, in order.
	Stages []*netsim.Host
	// MicroBatches per round (default 1).
	MicroBatches int
	// ActivationBytes cross each forward edge per microbatch.
	ActivationBytes int64
	// GradBytes cross each backward edge per microbatch (default
	// ActivationBytes).
	GradBytes int64
	// ComputeTime elapses between rounds.
	ComputeTime simtime.Duration
	Start       StartFlowFunc
}

// PipelineJob is a running pipeline-parallel loop.
type PipelineJob struct {
	jobStats
	cfg PipelineConfig
}

// RunPipeline starts the pipeline loop.
func RunPipeline(net *netsim.Network, cfg PipelineConfig) *PipelineJob {
	if cfg.MicroBatches < 1 {
		cfg.MicroBatches = 1
	}
	if cfg.GradBytes <= 0 {
		cfg.GradBytes = cfg.ActivationBytes
	}
	j := &PipelineJob{jobStats: newJobStats(net, cfg.ComputeTime), cfg: cfg}
	j.round()
	return j
}

func (j *PipelineJob) round() {
	if j.stopped || len(j.cfg.Stages) < 2 {
		return
	}
	p := len(j.cfg.Stages)
	m := j.cfg.MicroBatches
	actBytes, gradBytes := j.cfg.ActivationBytes, j.cfg.GradBytes
	if actBytes < 1 {
		actBytes = 1
	}
	if gradBytes < 1 {
		gradBytes = 1
	}
	waves := m + p - 2 // wave indices 0..m+p-3 per direction
	t0 := j.net.Now()
	// wave(d, k): direction d (0 forward, 1 backward), diagonal k. Forward
	// wave k carries microbatch m' over edge s→s+1 for every m'+s == k;
	// backward mirrors it over s+1→s.
	var wave func(d, k int)
	wave = func(d, k int) {
		if j.stopped {
			return
		}
		if k == waves {
			if d == 0 {
				wave(1, 0)
			} else {
				j.finishRound(t0, j.round)
			}
			return
		}
		remaining := 0
		for s := 0; s < p-1; s++ {
			if mb := k - s; mb >= 0 && mb < m {
				remaining++
			}
		}
		if remaining == 0 {
			wave(d, k+1)
			return
		}
		for s := 0; s < p-1; s++ {
			mb := k - s
			if mb < 0 || mb >= m {
				continue
			}
			src, dst := j.cfg.Stages[s], j.cfg.Stages[s+1]
			bytes := actBytes
			if d == 1 {
				src, dst = dst, src
				bytes = gradBytes
			}
			j.cfg.Start(src, dst, bytes, func() {
				remaining--
				if remaining == 0 {
					wave(d, k+1)
				}
			})
		}
	}
	wave(0, 0)
}
