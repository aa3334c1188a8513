package psim

import (
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/topo"
)

func testConfig(nLeaf, hostsPerLeaf, nSpine, shards int, seed int64) Config {
	return Config{
		NLeaf: nLeaf, HostsPerLeaf: hostsPerLeaf, NSpine: nSpine,
		Shards: shards, Seed: seed, Topo: topo.DefaultConfig(),
	}
}

// TestShardParity proves the sharded builder reproduces the sequential
// build: with K=1 every node, name, port, route, and link peering must match
// topo.LeafSpine exactly; with K>1 the same holds per node, with cut links
// remote-wired to the correct far (node, port).
func TestShardParity(t *testing.T) {
	const nLeaf, hostsPerLeaf, nSpine = 4, 3, 2
	cfg := testConfig(nLeaf, hostsPerLeaf, nSpine, 1, 42)
	seqNet := netsim.New(42)
	fab := topo.LeafSpine(seqNet, nLeaf, hostsPerLeaf, nSpine, cfg.Topo)

	for _, k := range []int{1, 2, 4} {
		cfg.Shards = k
		e := Build(cfg)
		if e.Part.K != k {
			t.Fatalf("K=%d: partitioner clamped to %d", k, e.Part.K)
		}

		// Every sequential node exists in exactly one shard, same id, name.
		total := 0
		for _, sh := range e.Shards {
			for _, n := range sh.Net.Nodes() {
				if n == nil {
					continue
				}
				total++
				seq := seqNet.Node(n.ID())
				if seq == nil || seq.Name() != n.Name() {
					t.Fatalf("K=%d: node %d %q has no sequential twin", k, n.ID(), n.Name())
				}
			}
		}
		if total != len(seqNet.Nodes()) {
			t.Fatalf("K=%d: %d nodes built, sequential has %d", k, total, len(seqNet.Nodes()))
		}

		// Switch port geometry and routing tables match port-for-port.
		seqSwitches := fab.Switches()
		for si, sw := range append(append([]*netsim.Switch{}, e.Leaves...), e.Spines...) {
			seq := seqSwitches[si]
			if sw.ID() != seq.ID() || len(sw.Ports) != len(seq.Ports) {
				t.Fatalf("K=%d: switch %q geometry mismatch", k, sw.Name())
			}
			// Every node id is a possible destination: a route one build has
			// and the other lacks shows as a candidate-count mismatch. Ids
			// outside the registry have no route in either.
			for dst := -2; dst < len(seqNet.Nodes())+2; dst++ {
				ports, want := sw.Route(dst), seq.Route(dst)
				if len(ports) != len(want) {
					t.Fatalf("K=%d: switch %q route to %d: %d candidates, want %d", k, sw.Name(), dst, len(ports), len(want))
				}
				got, exp := portIdxs(ports), portIdxs(want)
				for i := range got {
					if got[i] != exp[i] {
						t.Fatalf("K=%d: switch %q route to %d uses ports %v, want %v", k, sw.Name(), dst, got, exp)
					}
				}
			}
		}

		// Link wiring: intra-shard links peer; cross-shard links are
		// remote-wired (Peer == nil) on both ends.
		for l := 0; l < nLeaf; l++ {
			for s := 0; s < nSpine; s++ {
				up, down := e.LeafUp[l][s], e.SpineDown[s][l]
				if e.Part.CrossShard(l, s) {
					if up.Peer != nil || down.Peer != nil {
						t.Fatalf("K=%d: cross-shard link leaf%d-spine%d has a local peer", k, l, s)
					}
				} else if up.Peer != down || down.Peer != up {
					t.Fatalf("K=%d: intra-shard link leaf%d-spine%d not peered", k, l, s)
				}
			}
		}
	}
}

// portIdxs returns candidate port indices in table order — ECMP hashes into
// the slice by position, so candidate order is part of parity.
func portIdxs(ps []*netsim.Port) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.Index
	}
	return out
}
