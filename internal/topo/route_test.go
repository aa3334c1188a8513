package topo

import (
	"slices"
	"testing"

	"github.com/accnet/acc/internal/netsim"
)

// shortestPathRoutes is the dense reference for a built fabric's routing: for
// every switch and every node id, the ports whose far end is one hop closer
// to that node when it is a host, in port order; nil for any other id. Every
// fabric here routes up-down, and on these trees that is shortest-path ECMP.
func shortestPathRoutes(net *netsim.Network) map[*netsim.Switch][][]*netsim.Port {
	ref := map[*netsim.Switch][][]*netsim.Port{}
	nodes := net.Nodes()
	for _, n := range nodes {
		if sw, ok := n.(*netsim.Switch); ok {
			ref[sw] = make([][]*netsim.Port, len(nodes))
		}
	}
	ports := func(n netsim.Node) []*netsim.Port {
		switch v := n.(type) {
		case *netsim.Switch:
			return v.Ports
		case *netsim.Host:
			return []*netsim.Port{v.Port}
		}
		return nil
	}
	for _, dst := range nodes {
		if _, ok := dst.(*netsim.Host); !ok {
			continue
		}
		dist := map[netsim.Node]int{dst: 0}
		for frontier := []netsim.Node{dst}; len(frontier) > 0; {
			var next []netsim.Node
			for _, n := range frontier {
				for _, p := range ports(n) {
					if p.Peer == nil {
						continue
					}
					if _, seen := dist[p.Peer.Owner]; !seen {
						dist[p.Peer.Owner] = dist[n] + 1
						next = append(next, p.Peer.Owner)
					}
				}
			}
			frontier = next
		}
		for sw, table := range ref {
			for _, p := range sw.Ports {
				if p.Peer != nil && dist[p.Peer.Owner] == dist[sw]-1 {
					table[dst.ID()] = append(table[dst.ID()], p)
				}
			}
		}
	}
	return ref
}

// TestRoutesMatchShortestPathReference checks Route element by element for
// every switch and every node id of each fabric builder, plus ids outside
// the registry, against the dense reference.
func TestRoutesMatchShortestPathReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*netsim.Network) *Fabric
	}{
		{"star", func(n *netsim.Network) *Fabric { return Star(n, 8, DefaultConfig()) }},
		{"leaf-spine", func(n *netsim.Network) *Fabric { return LeafSpine(n, 4, 6, 2, DefaultConfig()) }},
		{"leaf-spine-wide", func(n *netsim.Network) *Fabric { return LeafSpine(n, 3, 5, 4, DefaultConfig()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.New(1)
			fab := tc.build(net)
			ref := shortestPathRoutes(net)
			nodes := len(net.Nodes())
			for _, sw := range fab.Switches() {
				for dst := -2; dst < nodes+2; dst++ {
					var want []*netsim.Port
					if dst >= 0 && dst < nodes {
						want = ref[sw][dst]
					}
					if got := sw.Route(dst); !slices.Equal(got, want) || (want == nil && got != nil) {
						t.Fatalf("%s: Route(%d) = %v, reference %v", sw.Name(), dst, got, want)
					}
				}
			}
		})
	}
}
