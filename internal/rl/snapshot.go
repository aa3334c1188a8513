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

// SaveState writes the network's weights and complete Adam state. Moments
// optim has not made yet are written as the zeros they stand for, so the
// image does not say whether a network has trained.
func (m *MLP) SaveState(w *codec.Writer) {
	w.Tag("mlp")
	w.Int(len(m.Sizes))
	for _, s := range m.Sizes {
		w.Int(s)
	}
	zero := make([]float64, slices.Max(m.Sizes))
	m.saveW(w, m.theta, zero)
	m.saveB(w, m.theta, zero)
	m.saveW(w, m.m, zero)
	m.saveW(w, m.v, zero)
	m.saveB(w, m.m, zero)
	m.saveB(w, m.v, zero)
	w.Int(m.adamT)
}

// RestoreState overlays a state saved by SaveState onto m, in place: the
// image must describe a network of exactly m's shape — layer sizes first,
// then every tensor row by row — and anything else fails the reader
// instead of reshaping m. Weights are decoded straight into theta. A
// moment tensor goes straight into m's own when optim has made it; until
// then its rows pass through a scratch row, and optim runs only for the
// first cell that is not zero — so a network that never trained (every
// target net) comes back without optimizer tensors, as Build left it.
func (m *MLP) RestoreState(r *codec.Reader) {
	r.Expect("mlp")
	if n := r.Int(); r.Err() != nil || n != len(m.Sizes) {
		r.Fail("mlp has %d layer sizes, want %d", n, len(m.Sizes))
		return
	}
	for i, want := range m.Sizes {
		if s := r.Int(); r.Err() != nil || s != want {
			r.Fail("mlp layer size %d at index %d, want %d", s, i, want)
			return
		}
	}
	scratch := make([]float64, 0, slices.Max(m.Sizes))
	m.loadW(r, &m.theta, scratch)
	m.loadB(r, &m.theta, scratch)
	m.loadW(r, &m.m, scratch)
	m.loadW(r, &m.v, scratch)
	m.loadB(r, &m.m, scratch)
	m.loadB(r, &m.v, scratch)
	m.adamT = r.Int()
}

// saveW writes the weight rows of flat, a tensor in theta's layout, as
// [layer][row] counted lists of rows; saveB writes its bias rows as one
// [layer] list. Byte for byte the framing nested [][][]float64 and
// [][]float64 tensors had, so images from before the contiguous layout
// load, and loadW/loadB can check each count against Sizes as it arrives.
func (m *MLP) saveW(w *codec.Writer, flat, zero []float64) {
	w.Int(len(m.off))
	for l, at := range m.off {
		in, out := m.Sizes[l], m.Sizes[l+1]
		w.Int(out)
		for o := 0; o < out; o++ {
			saveCells(w, flat, at, in, zero)
			at += in
		}
	}
}

func (m *MLP) loadW(r *codec.Reader, flat *[]float64, scratch []float64) {
	if n := r.Int(); r.Err() != nil || n != len(m.off) {
		r.Fail("mlp tensor has %d weight layers, want %d", n, len(m.off))
		return
	}
	for l, at := range m.off {
		in, out := m.Sizes[l], m.Sizes[l+1]
		if n := r.Int(); r.Err() != nil || n != out {
			r.Fail("mlp layer %d has %d weight rows, want %d", l, n, out)
			return
		}
		for o := 0; o < out; o++ {
			if n := m.loadCells(r, flat, at, in, scratch); n != in {
				r.Fail("mlp layer %d row %d has %d weights, want %d", l, o, n, in)
				return
			}
			at += in
		}
	}
}

func (m *MLP) saveB(w *codec.Writer, flat, zero []float64) {
	w.Int(len(m.off))
	for l, at := range m.off {
		in, out := m.Sizes[l], m.Sizes[l+1]
		saveCells(w, flat, at+in*out, out, zero)
	}
}

func (m *MLP) loadB(r *codec.Reader, flat *[]float64, scratch []float64) {
	if n := r.Int(); r.Err() != nil || n != len(m.off) {
		r.Fail("mlp tensor has %d bias layers, want %d", n, len(m.off))
		return
	}
	for l, at := range m.off {
		in, out := m.Sizes[l], m.Sizes[l+1]
		if n := m.loadCells(r, flat, at+in*out, out, scratch); n != out {
			r.Fail("mlp layer %d has %d biases, want %d", l, n, out)
			return
		}
	}
}

// saveCells writes cells [at, at+n) of flat, one of a network's tensors,
// as one list. A nil flat is an optimizer tensor optim has not made: the
// list is n zeros, out of zero.
func saveCells(w *codec.Writer, flat []float64, at, n int, zero []float64) {
	if flat == nil {
		flat, at = zero, 0
	}
	w.F64s(flat[at : at+n])
}

// loadCells decodes the list saveCells wrote into cells [at, at+n) of
// *flat and returns the length the list had; the cells are as saved only
// when that is n. For a nil *flat the list lands in scratch, and optim
// makes the tensor only if the list holds something other than zeros.
func (m *MLP) loadCells(r *codec.Reader, flat *[]float64, at, n int, scratch []float64) int {
	lazy := *flat == nil
	if !lazy {
		scratch = (*flat)[at : at : at+n]
	}
	row := r.F64sInto(scratch)
	if lazy && len(row) == n && slices.ContainsFunc(row, func(x float64) bool { return x != 0 }) {
		m.optim()
		copy((*flat)[at:], row)
	}
	return len(row)
}

func saveTransition(w *codec.Writer, t Transition) {
	w.F64s(t.State)
	w.Int(t.Action)
	w.F64(t.Reward)
	w.F64s(t.Next)
	w.Bool(t.Terminal)
}

// loadTransition reads t, packing its State and Next behind what arena
// already holds, and returns the extended arena.
func loadTransition(r *codec.Reader, t *Transition, arena []float64) []float64 {
	at := len(arena)
	arena = r.F64sInto(arena)
	t.State = arena[at:len(arena):len(arena)]
	t.Action = r.Int()
	t.Reward = r.F64()
	at = len(arena)
	arena = r.F64sInto(arena)
	t.Next = arena[at:len(arena):len(arena)]
	t.Terminal = r.Bool()
	return arena
}

// minTransitionBytes is the smallest encoding saveTransition can produce
// (two empty lists, one-byte varints, a reward, a bool): what bounds a
// saved transition count by the bytes left to read them from.
const minTransitionBytes = 1 + 1 + 8 + 1 + 1

// SaveState writes the replay memory's full contents and ring position.
func (rp *Replay) SaveState(w *codec.Writer) {
	w.Tag("replay")
	w.Int(rp.cap)
	w.Int(rp.next)
	w.Bool(rp.full)
	w.Int(len(rp.buf))
	for _, t := range rp.buf {
		saveTransition(w, t)
	}
}

// RestoreState replaces rp's contents with a state SaveState wrote from a
// memory of the same capacity. buf is sized to the saved length, not to
// the capacity, and every State and Next is a window of one float arena
// per memory — sized from the first transition, so it is one allocation
// when transitions are alike and append's growth when they are not. The
// header is held to what a ring of rp's capacity can be and to the bytes
// left in the stream before anything is sized from it; a failed restore
// leaves rp as it was.
func (rp *Replay) RestoreState(r *codec.Reader) {
	r.Expect("replay")
	capacity, next, full, n := r.Int(), r.Int(), r.Bool(), r.Int()
	switch {
	case r.Err() != nil:
	case capacity != rp.cap:
		r.Fail("replay capacity %d, memory was built with %d", capacity, rp.cap)
	case n < 0 || n > rp.cap || n > r.Remaining()/minTransitionBytes:
		r.Fail("replay length %d exceeds capacity %d or the %d bytes left", n, rp.cap, r.Remaining())
	case next < 0 || next >= rp.cap || n < rp.cap && (next != 0 || full):
		r.Fail("replay ring at %d (wrapped %v) with %d of %d slots filled", next, full, n, rp.cap)
	}
	if r.Err() != nil {
		return
	}
	buf := make([]Transition, n)
	var arena []float64
	for i := 0; i < n && r.Err() == nil; i++ {
		if i == 1 { // the first transition has shown how many floats one holds
			arena = make([]float64, 0, min((n-1)*len(arena), r.Remaining()/8))
		}
		arena = loadTransition(r, &buf[i], arena)
	}
	if r.Err() == nil {
		rp.buf, rp.next, rp.full = buf, next, full
	}
}

// SaveState writes the agent's networks, optimizer state, exploration
// schedule, and replay memory. Cfg is construction-time configuration and
// is not serialized — the restoring side rebuilds the agent from the same
// scenario and then overlays this state.
func (a *Agent) SaveState(w *codec.Writer) {
	w.Tag("agent")
	a.Eval.SaveState(w)
	a.Target.SaveState(w)
	a.Memory.SaveState(w)
	w.F64(a.eps)
	w.Int(a.trainSteps)
}

// RestoreState overlays a state saved by SaveState onto a freshly
// constructed agent (same Cfg).
func (a *Agent) RestoreState(r *codec.Reader) {
	r.Expect("agent")
	a.Eval.RestoreState(r)
	a.Target.RestoreState(r)
	a.Memory.RestoreState(r)
	a.eps = r.F64()
	a.trainSteps = r.Int()
}
