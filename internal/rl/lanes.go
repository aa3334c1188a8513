package rl

// lanes is the scratch of the many-sample path: one pass of w samples —
// the path's width, four or eight — through any network of the shape it
// was made for, forward and, for the training pass, back. It belongs to
// the Agent, which runs both of its networks through it, and not to an
// MLP: a network kept after its agent (exp.PretrainedModel's) stays
// weights and single-sample scratch.
type lanes struct {
	w     int
	sizes []int
	// acts[l] holds layer l's values for the w samples interleaved, unit i
	// of sample s at [w·i+s], one register per unit: acts[0] the inputs
	// load wrote, the last the outputs.
	acts [][]float64
	// rows[s] is the output row a row pass computes for sample s, and q[s]
	// its value; best[s] is the largest output argmaxes found for it.
	rows []int
	q    []float64
	best []int
	// trace[s][l] is sample s's input to layer l, contiguous as backward
	// reads it: trace[s][0] is set to the sample itself by the caller, a
	// hidden layer is regrouped from acts by split(l) into xs, the w
	// samples' inputs one after another. Backward reads one layer's at a
	// time, so the hidden layers share xs, sized for the widest. delta[s]
	// and below[s] hold sample s's deltas of the layer backward is in and
	// of the one below it.
	trace        [][][]float64
	xs           []float64
	delta, below [][]float64
}

// eights rounds a layer width up to whole groups of eight units: each
// layer's values in acts have room for that many, so split8AVX512 reads
// whole groups.
func eights(width int) int { return (width + 7) &^ 7 }

// newLanes makes the scratch for passes of w samples through networks of
// the given layer widths, the floats on one backing array.
func newLanes(sizes []int, w int) *lanes {
	layers := len(sizes) - 1
	n, widest, hidden := w, 0, 0
	for l, width := range sizes {
		n += w * eights(width)
		if l > 0 && l < layers {
			hidden = max(hidden, width)
		}
		widest = max(widest, width)
	}
	buf := make([]float64, n+w*hidden+2*w*widest)
	next := func(k int) []float64 {
		v := buf[:k:k]
		buf = buf[k:]
		return v
	}
	ints := make([]int, 2*w)
	ln := &lanes{w: w, sizes: sizes, acts: make([][]float64, len(sizes)), rows: ints[:w:w], best: ints[w:], q: next(w)}
	for l, width := range sizes {
		ln.acts[l] = next(w * eights(width))[:w*width]
	}
	views := make([][]float64, w*(layers+2))
	ln.trace, ln.xs = make([][][]float64, w), next(w*hidden)
	ln.delta, ln.below = views[w*layers:][:w:w], views[w*layers+w:]
	for s := range ln.trace {
		ln.trace[s] = views[s*layers : (s+1)*layers : (s+1)*layers]
	}
	for l := 1; l < layers; l++ {
		k := sizes[l]
		for s, t := range ln.trace {
			t[l] = ln.xs[s*k : (s+1)*k : (s+1)*k]
		}
	}
	for s := range ln.trace {
		ln.delta[s], ln.below[s] = next(widest), next(widest)
	}
	return ln
}

// load writes x as sample s's input.
func (ln *lanes) load(s int, x []float64) {
	in := ln.acts[0]
	x = x[:len(in)/ln.w]
	for i, v := range x {
		in[ln.w*i+s] = v
	}
}

// split regroups hidden layer l's values in acts by sample into trace,
// over the layer split regrouped before it.
func (ln *lanes) split(l int) {
	w, src := ln.w, ln.acts[l]
	if w == 8 {
		split8AVX512(src[:8*eights(ln.sizes[l])], ln.xs[:8*ln.sizes[l]])
		return
	}
	for s, t := range ln.trace {
		t := t[l]
		src := src[:w*len(t)]
		for i := range t {
			t[i] = src[w*i+s]
		}
	}
}

// forwardLanes runs the samples load left in ln through the network,
// keeping every layer's values in ln.acts, and returns the outputs,
// interleaved; they are valid until ln's next pass.
func (m *MLP) forwardLanes(ln *lanes) []float64 {
	last := len(m.off) - 1
	m.hiddenLanes(ln)
	m.layerLanes(ln, last, false)
	return ln.acts[last+1]
}

// rowLanes runs the samples load left in ln through the hidden layers and
// computes, of the output layer, only row ln.rows[s] of each sample s —
// the one output a caller reads — into ln.q, which it returns. Each is the
// sum forward makes of that row.
func (m *MLP) rowLanes(ln *lanes) []float64 {
	last := len(m.off) - 1
	m.hiddenLanes(ln)
	n, w := m.Sizes[last], ln.w
	p := m.layer(m.theta, last)
	wt, b := p[:len(p)-m.Sizes[last+1]], p[len(p)-m.Sizes[last+1]:]
	h := ln.acts[last][:w*n]
	// Four samples' sums at a time, so their add chains overlap.
	for s := 0; s < w; s += 4 {
		r := ln.rows[s : s+4 : s+4]
		w0, w1, w2, w3 := wt[r[0]*n:][:n], wt[r[1]*n:][:n], wt[r[2]*n:][:n], wt[r[3]*n:][:n]
		a0, a1, a2, a3 := b[r[0]], b[r[1]], b[r[2]], b[r[3]]
		for i := range n {
			x := h[w*i+s:][:4]
			a0 += w0[i] * x[0]
			a1 += w1[i] * x[1]
			a2 += w2[i] * x[2]
			a3 += w3[i] * x[3]
		}
		ln.q[s], ln.q[s+1], ln.q[s+2], ln.q[s+3] = a0, a1, a2, a3
	}
	return ln.q
}

// hiddenLanes runs every layer but the output layer over ln.
func (m *MLP) hiddenLanes(ln *lanes) {
	for l := 0; l < len(m.off)-1; l++ {
		m.layerLanes(ln, l, true)
	}
}

// layerLanes runs layer l over ln with the kernel of ln's width.
func (m *MLP) layerLanes(ln *lanes, l int, relu bool) {
	if ln.w == 8 {
		forward8(m.layer(m.theta, l), ln.acts[l], ln.acts[l+1], relu)
		return
	}
	forward4(m.layer(m.theta, l), ln.acts[l], ln.acts[l+1], relu)
}

// argmaxes sets best[s] to Argmax over sample s's values in the
// interleaved outputs q of a pass, for every lane.
func (ln *lanes) argmaxes(q []float64) {
	w := ln.w
	if w == 8 {
		argmax8AVX512(q, ln.best)
		return
	}
	for s := range ln.best {
		best := 0
		for o := 1; o < len(q)/w; o++ {
			if q[w*o+s] > q[w*best+s] {
				best = o
			}
		}
		ln.best[s] = best
	}
}
