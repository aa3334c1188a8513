package rl

import (
	"slices"

	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support: snapshots must resume training bit-identically, so
// they carry the full optimizer state (Adam first/second moments and step
// count), the exploration schedule, and the replay memory contents. A
// model file (acc.SaveModel) is the same MLP image of a weights-only
// network, its moments zeros.

// same visits a dimension the image must share with the value it is read
// into, and reports whether it does (always, saving).
func same(v *codec.Visitor, want int) (int, bool) {
	got := want
	v.Int(&got)
	return got, got == want && v.Err() == nil
}

// State visits the network's weights and complete Adam state. The image
// describes a network of exactly m's shape — layer sizes first, then every
// tensor row by row — and reading anything else fails the reader instead
// of reshaping m. Weights are decoded straight into theta. Moments optim
// has not made yet are saved as the zeros they stand for, so the image does
// not say whether a network has trained; reading, a moment tensor goes
// straight into m's own when optim has made it, and until then its rows
// pass through a spare row, optim running only for the first cell that is
// not zero — so a network that never trained (every target net) comes back
// without optimizer tensors, as Build left it.
func (m *MLP) State(v *codec.Visitor) {
	v.Tag("mlp")
	if n, ok := same(v, len(m.Sizes)); !ok {
		v.Fail("mlp has %d layer sizes, want %d", n, len(m.Sizes))
		return
	}
	for i, want := range m.Sizes {
		if s, ok := same(v, want); !ok {
			v.Fail("mlp layer size %d at index %d, want %d", s, i, want)
			return
		}
	}
	spare := make([]float64, slices.Max(m.Sizes))
	m.weights(v, &m.theta, spare)
	m.biases(v, &m.theta, spare)
	m.weights(v, &m.m, spare)
	m.weights(v, &m.v, spare)
	m.biases(v, &m.m, spare)
	m.biases(v, &m.v, spare)
	v.Int(&m.adamT)
	if v.Reading() {
		m.version++
	}
}

// weights visits the weight rows of *flat, a tensor in theta's layout, as
// [layer][row] counted lists of rows; biases visits its bias rows as one
// [layer] list. Byte for byte the framing nested [][][]float64 and
// [][]float64 tensors had, so images from before the contiguous layout
// load, and every count is checked against Sizes as it arrives.
func (m *MLP) weights(v *codec.Visitor, flat *[]float64, spare []float64) {
	if n, ok := same(v, len(m.off)); !ok {
		v.Fail("mlp tensor has %d weight layers, want %d", n, len(m.off))
		return
	}
	for l, at := range m.off {
		in, out := m.Sizes[l], m.Sizes[l+1]
		if n, ok := same(v, out); !ok {
			v.Fail("mlp layer %d has %d weight rows, want %d", l, n, out)
			return
		}
		for o := 0; o < out; o++ {
			if n := m.cells(v, flat, at, in, spare); n != in {
				v.Fail("mlp layer %d row %d has %d weights, want %d", l, o, n, in)
				return
			}
			at += in
		}
	}
}

func (m *MLP) biases(v *codec.Visitor, flat *[]float64, spare []float64) {
	if n, ok := same(v, len(m.off)); !ok {
		v.Fail("mlp tensor has %d bias layers, want %d", n, len(m.off))
		return
	}
	for l, at := range m.off {
		in, out := m.Sizes[l], m.Sizes[l+1]
		if n := m.cells(v, flat, at+in*out, out, spare); n != out {
			v.Fail("mlp layer %d has %d biases, want %d", l, n, out)
			return
		}
	}
}

// cells visits cells [at, at+n) of *flat, one of the network's tensors, as
// one list, and returns the length the list had; the cells are as saved
// only when that is n. A nil *flat is an optimizer tensor optim has not
// made: saving writes n zeros out of spare, and reading lands the list in
// spare and makes the tensor only if the list holds something other than
// zeros.
func (m *MLP) cells(v *codec.Visitor, flat *[]float64, at, n int, spare []float64) int {
	lazy := *flat == nil
	row := spare[:n]
	if !lazy {
		row = (*flat)[at : at+n : at+n]
	}
	v.F64s(&row)
	if v.Reading() && lazy && len(row) == n && slices.ContainsFunc(row, func(x float64) bool { return x != 0 }) {
		m.optim()
		copy((*flat)[at:], row)
	}
	return len(row)
}

// state visits t; reading, its State and Next are shared rows (F64sPacked):
// nothing writes into a transition's vectors once it is made.
func (t *Transition) state(v *codec.Visitor) {
	v.F64sPacked(&t.State)
	v.Int(&t.Action)
	v.F64(&t.Reward)
	v.F64sPacked(&t.Next)
	v.Bool(&t.Terminal)
}

// minTransitionBytes is the smallest encoding of a transition (two empty
// lists, one-byte varints, a reward, a bool): what bounds a saved
// transition count by the bytes left to read them from.
const minTransitionBytes = 1 + 1 + 8 + 1 + 1

// State visits the replay memory's full contents and ring position.
// Reading replaces rp's contents with a state saved from a memory of the
// same capacity. buf is sized to the saved length, not to the capacity, and
// a vector several transitions hold is one shared row. The header is held
// to what a ring of rp's capacity can be, and to the bytes left in the
// stream, before anything is sized from it; a failed restore leaves rp as
// it was.
func (rp *Replay) State(v *codec.Visitor) {
	v.Tag("replay")
	capacity, next, full := rp.cap, rp.next, rp.full
	v.Int(&capacity)
	v.Int(&next)
	v.Bool(&full)
	n := v.Count("replay length", len(rp.buf), minTransitionBytes)
	switch {
	case v.Err() != nil:
	case capacity != rp.cap:
		v.Fail("replay capacity %d, memory was built with %d", capacity, rp.cap)
	case n > rp.cap:
		v.Fail("replay length %d exceeds capacity %d", n, rp.cap)
	case next < 0 || next >= rp.cap || n < rp.cap && (next != 0 || full):
		v.Fail("replay ring at %d (wrapped %v) with %d of %d slots filled", next, full, n, rp.cap)
	}
	if v.Err() != nil {
		return
	}
	buf := rp.buf
	if v.Reading() {
		buf = make([]Transition, n)
	}
	for i := range buf {
		buf[i].state(v)
	}
	if v.Reading() && v.Err() == nil {
		rp.buf, rp.next, rp.full, rp.memo = buf, next, full, nil
	}
}

// State visits the agent's networks, optimizer state, exploration
// schedule, and replay memory. Cfg is construction-time configuration and
// is not serialized — the restoring side rebuilds the agent from the same
// scenario and then overlays this state.
func (a *Agent) State(v *codec.Visitor) {
	v.Tag("agent")
	a.Eval.State(v)
	a.Target.State(v)
	a.Memory.State(v)
	v.F64(&a.eps)
	v.Int(&a.trainSteps)
}

// SaveState writes a standalone agent image: State over w.
func (a *Agent) SaveState(w *codec.Writer) { a.State(codec.Save(w)) }

// RestoreState overlays an image SaveState wrote onto an agent constructed
// with the same Cfg: State over r.
func (a *Agent) RestoreState(r *codec.Reader) { a.State(codec.Load(r)) }
