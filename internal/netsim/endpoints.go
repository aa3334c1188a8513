package netsim

// minEndpointSlots is the flow-id range the endpoint table may index before
// any id has been handed out.
const minEndpointSlots = 1024

// endpointTable dispatches every inbound packet of one Network to the
// endpoint bound to its (host, flow). Flow ids are dense — NextFlowID, or a
// plan's index + 1 — so the table is indexed by id, and a slot holds the two
// bindings a flow has, one per end: its sender and its receiver. A third
// binding of one id goes to the overflow map, and so does an id beyond
// every id the program has handed out: max(minEndpointSlots, NextFlowID's
// last, the range a plan declared). A sparse or hostile id therefore cannot
// size the table, while the highest id of a long run, or the first one bound
// on a restored fork, is indexed however few flows are live.
type endpointTable struct {
	slots    []endpointSlot
	over     map[endpointKey]Endpoint
	declared FlowID // highest id a plan declared (Network.DeclareFlowIDs)
}

// endpointSlot holds a flow id's bindings; a nil host marks a free pair.
type endpointSlot [2]endpointPair

type endpointPair struct {
	host *Host
	ep   Endpoint
}

type endpointKey struct {
	host *Host
	flow FlowID
}

// pair returns the pair of f's slot bound to h, or nil. pair(nil, f) finds
// a free pair.
func (t *endpointTable) pair(h *Host, f FlowID) *endpointPair {
	if f >= FlowID(len(t.slots)) {
		return nil
	}
	s := &t.slots[f]
	if s[0].host == h {
		return &s[0]
	}
	if s[1].host == h {
		return &s[1]
	}
	return nil
}

// get returns the endpoint bound to (h, f), or nil.
func (t *endpointTable) get(h *Host, f FlowID) Endpoint {
	if b := t.pair(h, f); b != nil {
		return b.ep
	}
	if len(t.over) == 0 {
		return nil
	}
	return t.over[endpointKey{h, f}]
}

// set binds (h, f) to e, replacing an existing binding in place.
func (t *endpointTable) set(h *Host, f FlowID, e Endpoint) {
	if b := t.pair(h, f); b != nil {
		b.ep = e
		return
	}
	k := endpointKey{h, f}
	if _, ok := t.over[k]; ok {
		t.over[k] = e
		return
	}
	if limit := max(minEndpointSlots, t.declared, h.net.nextFlow); f >= FlowID(len(t.slots)) && f <= limit {
		n := min(max(int(f)+1, 2*len(t.slots), 64), int(limit)+1)
		t.slots = append(t.slots, make([]endpointSlot, n-len(t.slots))...)
	}
	if b := t.pair(nil, f); b != nil {
		*b = endpointPair{h, e}
		return
	}
	if t.over == nil {
		t.over = make(map[endpointKey]Endpoint)
	}
	t.over[k] = e
}

// unset removes the binding of (h, f), if any.
func (t *endpointTable) unset(h *Host, f FlowID) {
	if b := t.pair(h, f); b != nil {
		*b = endpointPair{}
		return
	}
	delete(t.over, endpointKey{h, f})
}

// reset removes every binding and sizes the table for the declared range at
// once: a restore resets it, then binds the live flows of a plan.
func (t *endpointTable) reset() {
	clear(t.slots)
	clear(t.over)
	if t.declared > 0 && len(t.slots) <= int(t.declared) {
		t.slots = make([]endpointSlot, t.declared+1)
	}
}
