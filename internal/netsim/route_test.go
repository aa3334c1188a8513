package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// TestRouteClassesMatchDenseModel drives random SetRoute calls — repeated
// sets, reordered sets, overwrites, empty sets, destinations past the
// registry — against a dense [][]*Port model, and checks Route element by
// element for every destination, including ids outside the table.
func TestRouteClassesMatchDenseModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := New(1)
	for i := 0; i < 40; i++ {
		NewHost(net, "h")
	}
	sw := NewSwitch(net, DefaultSwitchConfig("sw"))
	var ports []*Port
	for i := 0; i < 6; i++ {
		ports = append(ports, sw.AddPort(simtime.Gbps, 0, nil))
	}
	var dense [][]*Port
	for step := 0; step < 2000; step++ {
		dst := rng.Intn(len(net.Nodes()) + 8)
		var set []*Port
		for _, i := range rng.Perm(len(ports))[:rng.Intn(4)] {
			set = append(set, ports[i])
		}
		for len(dense) <= dst {
			dense = append(dense, nil)
		}
		dense[dst] = slices.Clone(set)
		sw.SetRoute(dst, set...)
		if len(set) > 0 {
			set[0] = nil // the caller's slice: the switch must hold its own copy
		}
	}
	for dst := -3; dst < len(dense)+3; dst++ {
		var want []*Port
		if dst >= 0 && dst < len(dense) {
			want = dense[dst]
		}
		if got := sw.Route(dst); !slices.Equal(got, want) || (len(want) == 0 && got != nil) {
			t.Fatalf("Route(%d) = %v, dense model %v", dst, got, want)
		}
	}
	// Dedup by content: at most one class per distinct ordered set.
	seen := map[string]bool{}
	for _, s := range sw.routeSets[1:] {
		key := ""
		for _, p := range s {
			key += string(rune('a' + p.Index))
		}
		if seen[key] || len(s) == 0 {
			t.Fatalf("route set %q stored twice or empty", key)
		}
		seen[key] = true
	}
}

// TestRouteSetLimit: the table's uint16 indices cap a switch at 2^16 - 1
// distinct candidate sets; construction past that panics instead of
// wrapping onto another set.
func TestRouteSetLimit(t *testing.T) {
	net := New(1)
	h := NewHost(net, "h")
	sw := NewSwitch(net, DefaultSwitchConfig("sw"))
	p := sw.AddPort(simtime.Gbps, 0, nil)
	sw.routeSets = append(sw.routeSets, make([][]*Port, 1<<16-1)...) // 2^16 sets, none equal to {p}
	defer func() {
		if recover() == nil {
			t.Fatal("a 2^16-th distinct set was accepted")
		}
	}()
	sw.SetRoute(h.ID(), p)
}
