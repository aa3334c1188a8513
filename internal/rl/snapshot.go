package rl

import (
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support: unlike the JSON model files (weights only, for
// deployment), snapshots must resume training bit-identically, so they
// carry the full optimizer state (Adam first/second moments and step
// count), the exploration schedule, and the replay memory contents.

// SaveState writes the network's weights and complete Adam state.
func (m *MLP) SaveState(w *codec.Writer) {
	w.Tag("mlp")
	w.Int(len(m.Sizes))
	for _, s := range m.Sizes {
		w.Int(s)
	}
	m.saveW(w, m.theta)
	m.saveB(w, m.theta)
	m.saveW(w, m.m)
	m.saveW(w, m.v)
	m.saveB(w, m.m)
	m.saveB(w, m.v)
	w.Int(m.adamT)
}

// maxSnapshotParams bounds the network RestoreMLP will allocate for before
// it has seen a single weight: the layer sizes come first in the image, so
// without a bound one corrupt width is a multi-gigabyte make. The paper's
// network has 3 560 parameters.
const maxSnapshotParams = 1 << 20

// RestoreMLP rebuilds a network saved with SaveState, including optimizer
// state, with fresh scratch buffers. Every tensor is read straight into
// the new network's backing and must have exactly the shape the saved
// layer sizes prescribe; anything else fails the reader.
func RestoreMLP(r *codec.Reader) *MLP {
	r.Expect("mlp")
	n := r.Int()
	if r.Err() != nil || n < 2 || n > 64 {
		r.Fail("mlp layer count %d out of range", n)
		return nil
	}
	sizes := make([]int, n)
	params := 0
	for i := range sizes {
		sizes[i] = r.Int()
		if r.Err() != nil || sizes[i] < 1 || sizes[i] > maxSnapshotParams {
			r.Fail("mlp layer size %d at index %d", sizes[i], i)
			return nil
		}
		if i > 0 {
			params += (sizes[i-1] + 1) * sizes[i]
		}
		if params > maxSnapshotParams {
			r.Fail("mlp has over %d parameters", maxSnapshotParams)
			return nil
		}
	}
	m := newMLP(sizes)
	m.loadW(r, m.theta)
	m.loadB(r, m.theta)
	m.loadW(r, m.m)
	m.loadW(r, m.v)
	m.loadB(r, m.m)
	m.loadB(r, m.v)
	m.adamT = r.Int()
	if r.Err() != nil {
		return nil
	}
	return m
}

// saveW writes the weight rows of flat, a tensor in theta's layout, as
// [layer][row] counted lists of rows; saveB writes its bias rows as one
// [layer] list. Byte for byte the framing nested [][][]float64 and
// [][]float64 tensors had, so images from before the contiguous layout
// load, and loadW/loadB can check each count against Sizes as it arrives.
func (m *MLP) saveW(w *codec.Writer, flat []float64) {
	w.Int(len(m.off))
	for l, at := range m.off {
		in, out := m.Sizes[l], m.Sizes[l+1]
		w.Int(out)
		for o := 0; o < out; o++ {
			saveRow(w, flat[at:at+in])
			at += in
		}
	}
}

func (m *MLP) loadW(r *codec.Reader, flat []float64) {
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
			if n, ok := loadRow(r, flat[at:at+in]); !ok {
				r.Fail("mlp layer %d row %d has %d weights, want %d", l, o, n, in)
				return
			}
			at += in
		}
	}
}

func (m *MLP) saveB(w *codec.Writer, flat []float64) {
	w.Int(len(m.off))
	for l := range m.off {
		saveRow(w, m.layer(flat, l)[m.Sizes[l]*m.Sizes[l+1]:])
	}
}

func (m *MLP) loadB(r *codec.Reader, flat []float64) {
	if n := r.Int(); r.Err() != nil || n != len(m.off) {
		r.Fail("mlp tensor has %d bias layers, want %d", n, len(m.off))
		return
	}
	for l := range m.off {
		if n, ok := loadRow(r, m.layer(flat, l)[m.Sizes[l]*m.Sizes[l+1]:]); !ok {
			r.Fail("mlp layer %d has %d biases, want %d", l, n, m.Sizes[l+1])
			return
		}
	}
}

// saveRow writes what Writer.F64s writes — a length, then the cells — out
// of the primitives loadRow reads it back with: Reader.F64s would allocate
// a slice per row only to have it copied into the backing.
func saveRow(w *codec.Writer, row []float64) {
	w.U64(uint64(len(row)))
	for _, v := range row {
		w.F64(v)
	}
}

// loadRow fills dst from a row saveRow wrote. A row of any other length is
// left unread: ok is false and n is the length found.
func loadRow(r *codec.Reader, dst []float64) (n uint64, ok bool) {
	n = r.U64()
	if r.Err() != nil || n != uint64(len(dst)) {
		return n, false
	}
	for i := range dst {
		dst[i] = r.F64()
	}
	return n, true
}

func saveTransition(w *codec.Writer, t Transition) {
	w.F64s(t.State)
	w.Int(t.Action)
	w.F64(t.Reward)
	w.F64s(t.Next)
	w.Bool(t.Terminal)
}

func loadTransition(r *codec.Reader) Transition {
	var t Transition
	t.State = r.F64s()
	t.Action = r.Int()
	t.Reward = r.F64()
	t.Next = r.F64s()
	t.Terminal = r.Bool()
	return t
}

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

// RestoreState replaces rp's contents with a state saved by SaveState.
func (rp *Replay) RestoreState(r *codec.Reader) {
	r.Expect("replay")
	rp.cap = r.Int()
	rp.next = r.Int()
	rp.full = r.Bool()
	n := r.Int()
	if r.Err() != nil || n < 0 || n > rp.cap {
		r.Fail("replay length %d exceeds capacity %d", n, rp.cap)
		return
	}
	rp.buf = make([]Transition, 0, rp.cap)
	for i := 0; i < n && r.Err() == nil; i++ {
		rp.buf = append(rp.buf, loadTransition(r))
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
	if ev := RestoreMLP(r); ev != nil {
		a.Eval = ev
	}
	if tg := RestoreMLP(r); tg != nil {
		a.Target = tg
	}
	a.Memory.RestoreState(r)
	a.eps = r.F64()
	a.trainSteps = r.Int()
}
