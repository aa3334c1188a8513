package netsim

import (
	"testing"
)

// tagEndpoint is a comparable Endpoint, so a lookup can be checked for
// returning exactly the binding a model holds.
type tagEndpoint struct{ id int }

func (*tagEndpoint) Handle(*Packet) {}

// endpointModel drives a Network's endpoint table and a plain map side by
// side and checks, after every operation, that every (host, id) it has ever
// touched resolves identically, that the table stays within its bound, and
// that a new binding of an id within the bound lands in a slot unless both
// of the slot's pairs are taken.
type endpointModel struct {
	t       *testing.T
	net     *Network
	hosts   []*Host
	model   map[endpointKey]Endpoint
	probes  map[FlowID]bool
	nextTag int
}

func newEndpointModel(t *testing.T, nHosts int) *endpointModel {
	m := &endpointModel{t: t, net: New(1), model: map[endpointKey]Endpoint{}, probes: map[FlowID]bool{}}
	for i := 0; i < nHosts; i++ {
		m.hosts = append(m.hosts, NewHost(m.net, "h"))
	}
	return m
}

func (m *endpointModel) register(h int, f FlowID) Endpoint {
	m.nextTag++
	e := &tagEndpoint{m.nextTag}
	tab, k := &m.net.endpoints, endpointKey{m.hosts[h], f}
	_, had := m.model[k]
	m.hosts[h].Register(f, e)
	m.model[k] = e
	m.probes[f] = true
	if !had && f <= m.bound() && tab.pair(k.host, f) == nil &&
		(f >= FlowID(len(tab.slots)) || tab.pair(nil, f) != nil) {
		m.t.Fatalf("flow %d is within the bound %d but overflowed with a free pair", f, m.bound())
	}
	m.check()
	return e
}

// bound is the highest id the table may index.
func (m *endpointModel) bound() FlowID {
	return max(minEndpointSlots, m.net.endpoints.declared, m.net.nextFlow)
}

func (m *endpointModel) unregister(h int, f FlowID) {
	m.hosts[h].Unregister(f)
	delete(m.model, endpointKey{m.hosts[h], f})
	m.probes[f] = true
	m.check()
}

func (m *endpointModel) reset() {
	m.net.ResetEndpoints()
	clear(m.model)
	m.check()
}

func (m *endpointModel) check() {
	m.t.Helper()
	for f := range m.probes {
		for _, h := range m.hosts {
			if got, want := h.Endpoint(f), m.model[endpointKey{h, f}]; got != want {
				m.t.Fatalf("host %p flow %d resolves to %v, the model holds %v", h, f, got, want)
			}
		}
	}
	if n := len(m.net.endpoints.slots); FlowID(n) > m.bound()+1 {
		m.t.Fatalf("table has %d slots, bound %d", n, m.bound())
	}
}

// TestEndpointTableMatchesMap walks the cases the table distinguishes: a
// flow's two ends in one slot, a third host on the same id, re-registering
// in place, freeing and reusing a pair, ResetEndpoints, and ids beyond the
// bound, which go to the overflow map until a plan declares them.
func TestEndpointTableMatchesMap(t *testing.T) {
	m := newEndpointModel(t, 3)
	tab := &m.net.endpoints

	m.register(0, 1) // sender
	m.register(1, 1) // receiver: the slot's second pair
	m.register(2, 1) // a third end of one id overflows
	if len(tab.over) != 1 {
		t.Fatalf("third binding of one id: %d overflow entries, want 1", len(tab.over))
	}
	m.register(0, 1) // re-register in place: no new binding
	m.unregister(1, 1)
	m.register(1, 1) // reuses the freed pair
	m.unregister(2, 1)
	if len(tab.over) != 0 {
		t.Fatalf("unregistering the overflowed end left %d overflow entries", len(tab.over))
	}
	m.unregister(2, 1) // unbound: a no-op

	// Id 0 and the last id the minimum table covers.
	m.register(0, 0)
	m.register(2, minEndpointSlots)
	// Beyond every id handed out: overflow, and the table is not sized by it.
	for _, f := range []FlowID{minEndpointSlots + 1, 1 << 40, ^FlowID(0)} {
		m.register(1, f)
	}
	if len(tab.slots) > minEndpointSlots+1 {
		t.Fatalf("ids beyond the bound sized the table to %d slots", len(tab.slots))
	}
	m.unregister(1, 1<<40)

	m.reset()
	m.register(2, 1) // a reset table binds again
	m.reset()

	// A declared range is indexed, and a reset keeps it.
	m.net.DeclareFlowIDs(2000)
	m.net.DeclareFlowIDs(1500) // never narrows
	m.register(2, 2000)
	m.reset()
	m.register(0, 1999)
	if len(tab.over) != 0 || len(tab.slots) != 2001 {
		t.Fatalf("declared ids: %d overflow entries, %d slots; want 0 and 2001", len(tab.over), len(tab.slots))
	}
}

// TestEndpointTableIndexesChurnedIDs binds and unbinds flows one after
// another, so at most one flow is live while ids climb past 1024 — the shape
// of a long run whose transports unregister on completion, and of a restored
// fork whose first binding is already a high id. Every binding must land in
// a slot, both for NextFlowID's ids and for a plan's declared ones.
func TestEndpointTableIndexesChurnedIDs(t *testing.T) {
	churn := func(m *endpointModel, next func() FlowID, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			f := next()
			m.register(0, f)
			m.register(1, f)
			if o := len(m.net.endpoints.over); o != 0 {
				t.Fatalf("flow %d with one flow live: %d overflow entries", f, o)
			}
			m.unregister(0, f)
			m.unregister(1, f)
		}
	}
	m := newEndpointModel(t, 2)
	churn(m, m.net.NextFlowID, 3000)

	m = newEndpointModel(t, 2)
	m.net.DeclareFlowIDs(3000)
	f := FlowID(1400)
	churn(m, func() FlowID { f++; return f }, 1600)
}

// FuzzEndpointTable drives random bind / unbind / reset scripts against the
// map model, with the bound moved by NextFlowID and DeclareFlowIDs between
// them. Each byte pair is one operation: the first byte picks the kind and
// host, the second the flow id, from ids that cover the table's edges (zero,
// the minimum bound, far beyond it) and a dense low range.
func FuzzEndpointTable(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 4, 1, 3, 0})
	f.Add([]byte{0, 200, 1, 201, 2, 202, 8, 200, 0, 203, 15, 0, 0, 200})
	f.Add([]byte{0x13, 255, 0, 204, 4, 204, 8, 204, 0x23, 0, 0x33, 0, 1, 204})
	f.Fuzz(func(t *testing.T, script []byte) {
		far := []FlowID{0, minEndpointSlots - 1, minEndpointSlots, minEndpointSlots + 1, 4096, 1 << 40, ^FlowID(0)}
		m := newEndpointModel(t, 3)
		for i := 0; i+1 < len(script); i += 2 {
			op, b := script[i], script[i+1]
			id := FlowID(b)
			if b >= 200 {
				id = far[int(b-200)%len(far)]
			}
			h := int(op>>2) % len(m.hosts)
			switch op & 3 {
			case 0, 1:
				m.register(h, id)
			case 2:
				m.unregister(h, id)
			case 3:
				switch op >> 4 & 3 {
				case 1:
					m.net.DeclareFlowIDs(FlowID(b) * 16) // a plan's dense range, up to 4080
				case 2:
					m.net.NextFlowID()
				case 3:
					m.reset()
				}
			}
		}
	})
}
