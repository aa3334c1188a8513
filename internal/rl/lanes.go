package rl

// lanes is the scratch of the four-sample path: one pass of four samples
// through any network of the shape it was made for. It belongs to the
// Agent, which runs both of its networks through it, and not to an MLP: a
// network kept after its agent (exp.PretrainedModel's) stays weights and
// single-sample scratch.
type lanes struct {
	// acts[l] holds layer l's values for the four samples interleaved, unit
	// i of sample s at [4i+s], one AVX2 register per unit: acts[0] the
	// inputs load wrote, the last the outputs.
	acts [][]float64
	// trace[s][l] is sample s's input to layer l, contiguous as backward
	// reads it: trace[s][0] is set to the sample itself by the caller, the
	// hidden layers are regrouped from acts by split.
	trace [4][][]float64
}

// newLanes makes the scratch for networks of the given layer widths, the
// floats on one backing array.
func newLanes(sizes []int) *lanes {
	layers := len(sizes) - 1
	n := 0
	for l, w := range sizes {
		n += 4 * w
		if l > 0 && l < layers {
			n += 4 * w
		}
	}
	buf := make([]float64, n)
	next := func(w int) []float64 {
		v := buf[:w:w]
		buf = buf[w:]
		return v
	}
	ln := &lanes{acts: make([][]float64, len(sizes))}
	for l, w := range sizes {
		ln.acts[l] = next(4 * w)
	}
	views := make([][]float64, 4*layers)
	for s := range ln.trace {
		ln.trace[s] = views[s*layers : (s+1)*layers : (s+1)*layers]
		for l := 1; l < layers; l++ {
			ln.trace[s][l] = next(sizes[l])
		}
	}
	return ln
}

// load interleaves the inputs of four samples into acts[0].
func (ln *lanes) load(x0, x1, x2, x3 []float64) {
	in := ln.acts[0]
	n := len(in) / 4
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for i := range x0 {
		in[4*i], in[4*i+1], in[4*i+2], in[4*i+3] = x0[i], x1[i], x2[i], x3[i]
	}
}

// split regroups the hidden layers' values in acts by sample into trace.
func (ln *lanes) split() {
	for l := 1; l < len(ln.trace[0]); l++ {
		t0, t1, t2, t3 := ln.trace[0][l], ln.trace[1][l], ln.trace[2][l], ln.trace[3][l]
		src := ln.acts[l][:4*len(t0)]
		t1, t2, t3 = t1[:len(t0)], t2[:len(t0)], t3[:len(t0)]
		for i := range t0 {
			v := src[4*i:][:4]
			t0[i], t1[i], t2[i], t3[i] = v[0], v[1], v[2], v[3]
		}
	}
}

// forwardLanes runs the four samples load left in ln through the network,
// keeping every layer's values in ln.acts, and returns the outputs,
// interleaved; they are valid until ln's next pass.
func (m *MLP) forwardLanes(ln *lanes) []float64 {
	last := len(m.off) - 1
	for l := range m.off {
		forward4(m.layer(m.theta, l), ln.acts[l], ln.acts[l+1], l < last)
	}
	return ln.acts[last+1]
}

// argmaxLane is Argmax over sample s's values in the interleaved q4.
func argmaxLane(q4 []float64, s int) int {
	best := 0
	for o := 1; o < len(q4)/4; o++ {
		if q4[4*o+s] > q4[4*best+s] {
			best = o
		}
	}
	return best
}
