// Package topo builds the network topologies used in the paper's
// evaluation: a single-switch star (the §5.2 fairness setup), the testbed
// two-tier Clos PoD (§5.1), and the large leaf–spine fabric of the NS3
// simulations (§5.4). Builders wire ports, fill ECMP routing tables, and
// apply NIC injection limits so rate-based transports share NIC ports the
// way per-QP limiters do in hardware.
package topo

import (
	"fmt"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
)

// Config parameterizes a fabric build.
type Config struct {
	HostBW    simtime.Rate     // host uplink rate (e.g. 25Gbps)
	FabricBW  simtime.Rate     // leaf<->spine link rate (e.g. 100Gbps)
	HostDelay simtime.Duration // host<->leaf propagation delay
	FabDelay  simtime.Duration // leaf<->spine propagation delay

	// QueueWeights lists DWRR weights per priority for every port
	// (nil = single priority-0 queue). The paper's fairness study uses
	// {0:3, 3:7} for a 30/70 TCP/RDMA split.
	QueueWeights []int

	Switch netsim.SwitchConfig // template; Name is overridden per instance
}

// nicInjectLimit bounds per-priority host NIC queue bytes to 4 MTU-sized
// frames.
const nicInjectLimit = 4 * (netsim.DefaultMTU + netsim.DataHeaderBytes)

// DefaultConfig mirrors the paper's testbed: 25G hosts, 100G fabric links,
// microsecond-scale delays giving an inter-rack RTT of a few microseconds.
func DefaultConfig() Config {
	return Config{
		HostBW:    25 * simtime.Gbps,
		FabricBW:  100 * simtime.Gbps,
		HostDelay: 600 * simtime.Nanosecond,
		FabDelay:  600 * simtime.Nanosecond,
		Switch:    netsim.DefaultSwitchConfig(""),
	}
}

// Fabric is a built topology.
type Fabric struct {
	Net     *netsim.Network
	Hosts   []*netsim.Host
	Leaves  []*netsim.Switch
	Spines  []*netsim.Switch
	HostsAt [][]*netsim.Host // hosts per leaf

	// Fabric link tables (leaf–spine builds only): Uplinks[l][s] is leaf
	// l's port toward spine s, Downlinks[s][l] the reverse. Consumers that
	// model paths outside the packet engine (internal/hybrid) need the
	// physical per-spine ports because ECMP hashes flows onto individual
	// uplinks — an aggregate trunk would hide hash-collision congestion.
	Uplinks   [][]*netsim.Port
	Downlinks [][]*netsim.Port
}

// Switches returns all switches, leaves first.
func (f *Fabric) Switches() []*netsim.Switch {
	out := make([]*netsim.Switch, 0, len(f.Leaves)+len(f.Spines))
	out = append(out, f.Leaves...)
	out = append(out, f.Spines...)
	return out
}

// HostPorts returns every host's NIC port, in host order.
func (f *Fabric) HostPorts() []*netsim.Port {
	out := make([]*netsim.Port, len(f.Hosts))
	for i, h := range f.Hosts {
		out[i] = h.Port
	}
	return out
}

// LeafOf returns the index of the leaf switch serving host h.
func (f *Fabric) LeafOf(h *netsim.Host) int {
	for li, hs := range f.HostsAt {
		for _, hh := range hs {
			if hh == h {
				return li
			}
		}
	}
	return -1
}

// attachHost creates a host NIC, connects it to a leaf port, and programs
// direct routes on the leaf.
func (c Config) attachHost(net *netsim.Network, leaf *netsim.Switch, name string) *netsim.Host {
	return c.AttachHostAt(net, leaf, name, len(net.Nodes()))
}

// Star builds nHosts hosts around a single switch (the paper's §5.2
// fairness topology with 8×100G hosts).
func Star(net *netsim.Network, nHosts int, c Config) *Fabric {
	sw := c.newSwitch(net, "sw0")
	f := &Fabric{Net: net, Leaves: []*netsim.Switch{sw}, HostsAt: [][]*netsim.Host{nil}}
	for i := 0; i < nHosts; i++ {
		h := c.attachHost(net, sw, fmt.Sprintf("h%d", i))
		f.Hosts = append(f.Hosts, h)
		f.HostsAt[0] = append(f.HostsAt[0], h)
	}
	return f
}

func (c Config) newSwitch(net *netsim.Network, name string) *netsim.Switch {
	return c.SwitchAt(net, name, len(net.Nodes()))
}

// LeafSpine builds a two-tier fabric: nLeaf leaf switches with hostsPerLeaf
// hosts each, and nSpine spine switches fully meshed to every leaf. Routes
// between leaves use ECMP across all spines.
func LeafSpine(net *netsim.Network, nLeaf, hostsPerLeaf, nSpine int, c Config) *Fabric {
	f := &Fabric{Net: net}
	for i := 0; i < nSpine; i++ {
		f.Spines = append(f.Spines, c.newSwitch(net, fmt.Sprintf("spine%d", i)))
	}
	f.HostsAt = make([][]*netsim.Host, nLeaf)

	uplinks := make([][]*netsim.Port, nLeaf)
	downlinks := make([][]*netsim.Port, nSpine)
	for s := range downlinks {
		downlinks[s] = make([]*netsim.Port, nLeaf)
	}

	for l := 0; l < nLeaf; l++ {
		leaf := c.newSwitch(net, fmt.Sprintf("leaf%d", l))
		f.Leaves = append(f.Leaves, leaf)
		for i := 0; i < hostsPerLeaf; i++ {
			h := c.attachHost(net, leaf, fmt.Sprintf("h%d-%d", l, i))
			f.Hosts = append(f.Hosts, h)
			f.HostsAt[l] = append(f.HostsAt[l], h)
		}
		uplinks[l] = make([]*netsim.Port, nSpine)
		for s := 0; s < nSpine; s++ {
			up := leaf.AddPort(c.FabricBW, c.FabDelay, c.QueueWeights)
			down := f.Spines[s].AddPort(c.FabricBW, c.FabDelay, c.QueueWeights)
			netsim.Connect(up, down)
			uplinks[l][s] = up
			downlinks[s][l] = down
		}
	}

	// Inter-leaf routes: ECMP over all uplinks; spine routes point at the
	// destination leaf's downlink.
	for l, leaf := range f.Leaves {
		for dl, hosts := range f.HostsAt {
			if dl == l {
				continue
			}
			for _, h := range hosts {
				leaf.SetRoute(h.ID(), uplinks[l]...)
			}
		}
		for s, spine := range f.Spines {
			for _, h := range f.HostsAt[l] {
				spine.SetRoute(h.ID(), downlinks[s][l])
			}
		}
	}
	f.Uplinks, f.Downlinks = uplinks, downlinks
	return f
}

// TestbedClos builds the paper's §5.1 testbed: 24 hosts across 4 leaves
// (6 hosts each), 2 spines, 25G host links and 100G fabric links.
func TestbedClos(net *netsim.Network, c Config) *Fabric {
	return LeafSpine(net, 4, 6, 2, c)
}

// LargeSim builds the §5.4 NS3 fabric: 288 hosts, 12 leaves × 24 hosts,
// 6 spines.
func LargeSim(net *netsim.Network, c Config) *Fabric {
	return LeafSpine(net, 12, 24, 6, c)
}
