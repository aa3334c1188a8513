package rl

// TrainBatchSGD performs one SGD-with-momentum step on the batch's mean
// squared error and returns the batch loss. It reuses the Adam first-moment
// buffer as velocity storage, so a given network should stick to one
// optimizer for the duration of training.
func (m *MLP) TrainBatchSGD(batch []Sample, lr, momentum float64) float64 {
	if len(batch) == 0 {
		return 0
	}
	loss := m.gradients(batch)
	theta := m.theta
	vel, _, grad := m.optim()
	vel = vel[:len(theta)]
	for i, g := range grad[:len(theta)] {
		vel[i] = momentum*vel[i] + g
		theta[i] -= lr * vel[i]
	}
	return loss
}

// gradients leaves the batch's mean-squared-error gradient in grad (zeroed
// here, valid until the next call) for the Adam and SGD steps, and returns
// the batch loss.
func (m *MLP) gradients(batch []Sample) float64 {
	_, _, grad := m.optim()
	clear(grad)
	var loss float64
	inv := 1 / float64(len(batch))
	last := len(m.off) - 1

	for _, s := range batch {
		acts := m.forwardTrace(s.X)
		err := acts[last+1][s.Action] - s.Target
		loss += err * err

		delta := m.delta[last]
		clear(delta)
		delta[s.Action] = 2 * err * inv

		for l := last; l >= 0; l-- {
			p, g, in := m.layer(m.theta, l), m.layer(grad, l), acts[l][:m.Sizes[l]]
			if l == 0 {
				backward(p, g, in, delta, nil)
				break
			}
			prev := m.delta[l-1]
			clear(prev)
			backward(p, g, in, delta, prev)
			for i, a := range in {
				if a <= 0 {
					prev[i] = 0
				}
			}
			delta = prev
		}
	}
	return loss * inv
}
