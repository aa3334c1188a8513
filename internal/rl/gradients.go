package rl

// gradients leaves the batch's mean-squared-error gradient in grad (made
// on the first call, zeroed here, valid until the next call) for the Adam
// step, and returns the batch loss. With ln, samples go through the
// forward pass four at a time and the remainder one by one; either way
// each sample is folded into grad in batch order.
func (m *MLP) gradients(batch []Sample, ln *lanes) float64 {
	if m.grad == nil {
		m.grad = make([]float64, len(m.theta))
	}
	clear(m.grad)
	var loss float64
	inv := 1 / float64(len(batch))
	last := len(m.off) - 1

	i := 0
	if ln != nil {
		for ; i+4 <= len(batch); i += 4 {
			four := batch[i : i+4]
			ln.load(four[0].X, four[1].X, four[2].X, four[3].X)
			out := m.forwardLanes(ln)
			ln.split()
			for s := range four {
				err := out[4*four[s].Action+s] - four[s].Target
				loss += err * err
				acts := ln.trace[s]
				acts[0] = four[s].X
				m.backprop(acts, four[s].Action, 2*err*inv)
			}
		}
	}
	for _, s := range batch[i:] {
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
		p, g, in := m.layer(m.theta, l), m.layer(m.grad, l), acts[l][:m.Sizes[l]]
		if l == 0 {
			backwardVec(p, g, in, delta, nil)
			return
		}
		prev := m.delta[l-1]
		clear(prev)
		backwardVec(p, g, in, delta, prev)
		for i, a := range in {
			if a <= 0 {
				prev[i] = 0
			}
		}
		delta = prev
	}
}
