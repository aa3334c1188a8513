package workload

import (
	"math"
	"math/rand"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

// StorageModel is one of the paper's Table-1 distributed-storage traffic
// models, identified by read-write ratio and block-size range.
type StorageModel struct {
	Name      string
	ReadRatio float64 // fraction of IOs that are reads (storage -> compute)
	BlockMin  int64   // bytes
	BlockMax  int64   // bytes
}

// Table1 reproduces the paper's Table 1.
func Table1() []StorageModel {
	return []StorageModel{
		{Name: "OLTP", ReadRatio: 0.5, BlockMin: 512, BlockMax: 64 * simtime.KB},
		{Name: "OLAP", ReadRatio: 0.5, BlockMin: 256 * simtime.KB, BlockMax: 4 * simtime.MB},
		{Name: "VDI", ReadRatio: 0.2, BlockMin: 1 * simtime.KB, BlockMax: 64 * simtime.KB},
		{Name: "ExchangeServer", ReadRatio: 0.6, BlockMin: 32 * simtime.KB, BlockMax: 512 * simtime.KB},
		{Name: "VideoStreaming", ReadRatio: 0.2, BlockMin: 64 * simtime.KB, BlockMax: 64 * simtime.KB},
		{Name: "FileBackup", ReadRatio: 0.4, BlockMin: 16 * simtime.KB, BlockMax: 64 * simtime.KB},
	}
}

// SampleBlock draws an IO size log-uniformly within the model's range,
// matching how block sizes spread over decades (e.g. OLTP's 512B–64KB).
func (m StorageModel) SampleBlock(rng *rand.Rand) int64 {
	if m.BlockMax <= m.BlockMin {
		return m.BlockMin
	}
	lo, hi := math.Log(float64(m.BlockMin)), math.Log(float64(m.BlockMax))
	return int64(math.Exp(lo + rng.Float64()*(hi-lo)))
}

// StorageConfig describes the §5.3.1 macro-benchmark: compute nodes issue
// closed-loop IO requests against storage nodes with a fixed IO depth
// (outstanding requests) per compute node.
type StorageConfig struct {
	Compute []*netsim.Host
	Storage []*netsim.Host
	Model   StorageModel
	IODepth int // outstanding IOs per compute node
	Start   StartFlowFunc
	// Replicate mirrors each write to a second storage node, modelling the
	// paper's "storage nodes backup data".
	Replicate bool
}

// StorageCluster is a running storage benchmark.
type StorageCluster struct {
	cfg StorageConfig
	net *netsim.Network
	rng *rand.Rand

	stopped bool

	// CompletedIOs counts finished IO operations (request + data transfer).
	CompletedIOs int64
	// BytesMoved counts data-block bytes transferred (excluding requests).
	BytesMoved int64
	// Latencies accumulates per-IO completion times.
	Latencies []simtime.Duration

	startedAt simtime.Time
}

// requestBytes is the size of an IO's request RPC (a read) or its ack (a
// write).
const requestBytes = 256

// RunStorage starts the closed-loop benchmark: each compute node launches
// IODepth independent IO chains, drawing IOs from a stream seeded with seed
// (see StartPoisson).
func RunStorage(net *netsim.Network, seed int64, cfg StorageConfig) *StorageCluster {
	c := &StorageCluster{
		cfg:       cfg,
		net:       net,
		rng:       rand.New(rand.NewSource(seed)),
		startedAt: net.Now(),
	}
	for _, comp := range cfg.Compute {
		for i := 0; i < cfg.IODepth; i++ {
			c.issue(comp)
		}
	}
	return c
}

// Stop ends the closed loop: outstanding IOs finish but don't renew.
func (c *StorageCluster) Stop() { c.stopped = true }

// IOPS returns completed IOs per second of virtual time since start.
func (c *StorageCluster) IOPS() float64 {
	el := c.net.Now().Sub(c.startedAt).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(c.CompletedIOs) / el
}

// issue runs one IO against a random storage node, then reissues.
func (c *StorageCluster) issue(comp *netsim.Host) {
	if c.stopped {
		return
	}
	stor := c.cfg.Storage[c.rng.Intn(len(c.cfg.Storage))]
	block := c.cfg.Model.SampleBlock(c.rng)
	isRead := c.rng.Float64() < c.cfg.Model.ReadRatio
	t0 := c.net.Now()

	finish := func() {
		c.CompletedIOs++
		c.BytesMoved += block
		c.Latencies = append(c.Latencies, c.net.Now().Sub(t0))
		c.issue(comp)
	}

	if isRead {
		// Request RPC to storage, then data back to compute.
		c.cfg.Start(comp, stor, requestBytes, func() {
			c.cfg.Start(stor, comp, block, finish)
		})
	} else {
		// Write: data to storage, small ack back; optional replication to a
		// second storage node happens off the critical path.
		c.cfg.Start(comp, stor, block, func() {
			if c.cfg.Replicate && len(c.cfg.Storage) > 1 {
				other := c.cfg.Storage[c.rng.Intn(len(c.cfg.Storage))]
				if other == stor {
					other = c.cfg.Storage[(indexOf(c.cfg.Storage, stor)+1)%len(c.cfg.Storage)]
				}
				c.cfg.Start(stor, other, block, nil)
			}
			c.cfg.Start(stor, comp, requestBytes, finish)
		})
	}
}

func indexOf(hs []*netsim.Host, h *netsim.Host) int {
	for i, x := range hs {
		if x == h {
			return i
		}
	}
	return 0
}
