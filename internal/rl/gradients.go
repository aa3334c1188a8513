package rl

// gradients leaves the batch's mean-squared-error gradient in grad (made
// on the first call, zeroed here, valid until the next call) for the Adam
// step, and returns the batch loss. With ln, gradientsLanes does it;
// without, each sample goes forward and back in turn. Either way each
// sample is folded into every cell of grad in batch order.
func (m *MLP) gradients(batch []Sample, ln *lanes) float64 {
	if m.grad == nil {
		m.grad = make([]float64, len(m.theta))
	}
	clear(m.grad)
	var loss float64
	inv := 1 / float64(len(batch))
	last := len(m.off) - 1

	if ln != nil {
		return m.gradientsLanes(batch, ln, inv)
	}
	for _, s := range batch {
		acts := m.forwardTrace(s.X)
		err := acts[last+1][s.Action] - s.Target
		loss += err * err
		m.backprop(acts, s.Action, 2*err*inv)
	}
	return loss * inv
}

// backprop folds one sample's gradient into grad, acts[l] being the
// sample's input to layer l and d the loss derivative on output unit
// action, every other output's being zero.
func (m *MLP) backprop(acts [][]float64, action int, d float64) {
	last := len(m.off) - 1
	delta := m.delta[last]
	clear(delta)
	delta[action] = d
	for l := last; l >= 0; l-- {
		var prev []float64
		if l > 0 {
			prev = m.delta[l-1]
		}
		backwardLayer(m.layer(m.theta, l), m.layer(m.grad, l), acts[l][:m.Sizes[l]], delta, prev)
		delta = prev
	}
}

// gradientsLanes is gradients through ln, ln.w samples at a time. The
// forward pass computes only each sample's trained action, the last group
// filled up with repeats of its last sample. Backward then goes a layer at
// a time through the group's samples in batch order before the next layer
// down: a layer's weights and gradient stay in the L1 cache for the
// group, where a network's worth of both does not fit. Every gradient cell
// still adds its samples in batch order.
func (m *MLP) gradientsLanes(batch []Sample, ln *lanes, inv float64) float64 {
	last := len(m.off) - 1
	var loss float64
	for i := 0; i < len(batch); i += ln.w {
		group := batch[i:min(i+ln.w, len(batch))]
		for s := range ln.w {
			smp := &group[min(s, len(group)-1)]
			ln.load(s, smp.X)
			ln.rows[s] = smp.Action
		}
		q := m.rowLanes(ln)
		for s := range group {
			smp := &group[s]
			err := q[s] - smp.Target
			loss += err * err
			ln.trace[s][0] = smp.X
			d := ln.delta[s][:m.Sizes[last+1]]
			clear(d)
			d[smp.Action] = 2 * err * inv
		}
		cur, below := ln.delta, ln.below
		for l := last; l >= 0; l-- {
			if l > 0 {
				ln.split(l)
			}
			p, g := m.layer(m.theta, l), m.layer(m.grad, l)
			for s := range group {
				var prev []float64
				if l > 0 {
					prev = below[s]
				}
				backwardLayer(p, g, ln.trace[s][l][:m.Sizes[l]], cur[s][:m.Sizes[l+1]], prev)
			}
			cur, below = below, cur
		}
	}
	return loss * inv
}
