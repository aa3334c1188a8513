package topo

import (
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

// Partition describes a K-way sharding of a leaf–spine fabric for the
// parallel engine (internal/psim). The unit of placement is the leaf group —
// a leaf switch together with all of its hosts — because host↔leaf links are
// the tightest-coupled (lowest delay, highest event rate) and must never be
// cut. Leaves are assigned to shards in contiguous, balanced blocks (leaves
// of one pod stay together); spines are dealt round-robin so every shard
// carries a share of the core. The only links crossing a shard boundary are
// then leaf↔spine links, whose propagation delay is the fabric delay — the
// conservative-sync lookahead.
type Partition struct {
	K int // effective shard count (clamped to [1, NLeaf])

	NLeaf, HostsPerLeaf, NSpine int

	LeafShard  []int // leaf index -> shard
	SpineShard []int // spine index -> shard

	// Lookahead is the minimum propagation delay of any link that can cross
	// a shard boundary (the leaf↔spine delay). The parallel engine uses it
	// as the barrier window: an event executed inside a window can only
	// influence another shard at least one full window later, so exchanging
	// cross-shard packets at barriers loses nothing. It is a property of the
	// geometry, not of K, so every shard layout runs the same barrier
	// cadence — a prerequisite for bit-identical sampled metrics.
	Lookahead simtime.Duration
}

// PartitionLeafSpine computes the K-way partition of a LeafSpine(nLeaf,
// hostsPerLeaf, nSpine, c) fabric. k is clamped to [1, nLeaf]: a star or
// single-leaf topology degenerates to one shard (there is nothing to cut
// that would not sever a host↔leaf link).
func PartitionLeafSpine(nLeaf, hostsPerLeaf, nSpine, k int, c Config) Partition {
	if k < 1 {
		k = 1
	}
	if k > nLeaf {
		k = nLeaf
	}
	p := Partition{
		K:            k,
		NLeaf:        nLeaf,
		HostsPerLeaf: hostsPerLeaf,
		NSpine:       nSpine,
		LeafShard:    make([]int, nLeaf),
		SpineShard:   make([]int, nSpine),
		Lookahead:    c.FabDelay,
	}
	for l := 0; l < nLeaf; l++ {
		// Balanced contiguous blocks: shard i owns leaves
		// [i*nLeaf/k, (i+1)*nLeaf/k).
		p.LeafShard[l] = l * k / nLeaf
	}
	for s := 0; s < nSpine; s++ {
		p.SpineShard[s] = s % k
	}
	return p
}

// Node-id formulas mirroring LeafSpine's construction order exactly: spines
// are registered first, then per leaf the leaf switch followed by its hosts.
// Shard-local builders (psim) register nodes at these explicit ids so a node
// carries the same id — hence routing address, arrival-stream key, and
// per-node RNG stream — in every layout. TestLeafSpineIDFormulas pins the
// formulas to the real builder.

// SpineID returns the node id of spine s.
func (p Partition) SpineID(s int) int { return s }

// LeafID returns the node id of leaf l.
func (p Partition) LeafID(l int) int { return p.NSpine + l*(p.HostsPerLeaf+1) }

// HostID returns the node id of host i under leaf l.
func (p Partition) HostID(l, i int) int { return p.LeafID(l) + 1 + i }

// NumNodes returns the total node count of the fabric.
func (p Partition) NumNodes() int { return p.NSpine + p.NLeaf*(p.HostsPerLeaf+1) }

// ShardOfNode maps a node id to its owning shard.
func (p Partition) ShardOfNode(id int) int {
	if id < p.NSpine {
		return p.SpineShard[id]
	}
	return p.LeafShard[(id-p.NSpine)/(p.HostsPerLeaf+1)]
}

// Port-index formulas, also pinned by TestLeafSpineIDFormulas: a leaf's
// ports are its hosts in order (0..H-1) followed by its uplinks (H+s for
// spine s); spine s's port toward leaf l is port l; a host's NIC is port 0.

// LeafHostPort returns leaf l's port index toward its i'th host.
func (p Partition) LeafHostPort(i int) int { return i }

// LeafUplinkPort returns leaf l's port index toward spine s.
func (p Partition) LeafUplinkPort(s int) int { return p.HostsPerLeaf + s }

// SpineDownlinkPort returns spine s's port index toward leaf l.
func (p Partition) SpineDownlinkPort(l int) int { return l }

// CrossShard reports whether the leaf l ↔ spine s link crosses shards.
func (p Partition) CrossShard(l, s int) bool {
	return p.LeafShard[l] != p.SpineShard[s]
}

// SwitchAt creates a switch named name registered at an explicit node id,
// configured from the template exactly as the sequential builders configure
// theirs.
func (c Config) SwitchAt(net *netsim.Network, name string, id int) *netsim.Switch {
	sc := c.Switch
	sc.Name = name
	return netsim.NewSwitchAt(net, sc, id)
}

// AttachHostAt creates a host registered at an explicit node id, wires its
// NIC to a fresh port on leaf, and programs the leaf's direct route — the
// explicit-id twin of the sequential builders' host attachment, sharing the
// same wiring code so shard-local builds cannot drift.
func (c Config) AttachHostAt(net *netsim.Network, leaf *netsim.Switch, name string, id int) *netsim.Host {
	h := netsim.NewHostAt(net, name, id)
	hp := h.AttachPort(c.HostBW, c.HostDelay, c.QueueWeights)
	for _, q := range hp.Queues {
		q.InjectLimit = nicInjectLimit
	}
	lp := leaf.AddPort(c.HostBW, c.HostDelay, c.QueueWeights)
	netsim.Connect(hp, lp)
	leaf.SetRoute(h.ID(), lp)
	return h
}
