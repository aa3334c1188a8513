// Package rl is the deep-reinforcement-learning substrate ACC builds on: a
// feed-forward neural network trained by backpropagation with Adam, a
// uniform experience-replay memory, and DQN / Double-DQN agents with
// ε-greedy exploration and periodic target-network synchronization — the
// algorithmic stack of the paper's §3.4.
//
// The arithmetic is float64 slices and hand-written kernels; no external
// tensor library is used (or available) — the paper's network is four small
// dense layers ({20,40,40,20} nodes, §6 "Resource Consumption"). The kernels
// are Go, plus AVX2 and AVX-512 assembly on amd64 CPUs that have it, chosen
// once at start-up and bit-identical to the Go kernels (kernels.go).
package rl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
)

// MLP is a fully connected network with ReLU hidden activations and a
// linear output layer (Q-values are unbounded).
//
// An MLP owns per-instance scratch buffers so Forward and TrainBatch
// allocate nothing in steady state: the slice returned by Forward is valid
// only until the next Forward/TrainBatch call on the same instance, and an
// MLP must not be used from multiple goroutines concurrently (each parallel
// experiment run builds its own agents; shared pre-trained models are only
// read via CopyFrom).
type MLP struct {
	Sizes []int // layer widths, input first
	//acclint:ignore snapcover row views of theta, which restore decodes into in place
	W [][][]float64 // W[l][out][in], rows of theta
	//acclint:ignore snapcover row views of theta, which restore decodes into in place
	B [][]float64 // B[l][out], rows of theta

	// theta holds every parameter on one contiguous slice: layer l's
	// Sizes[l+1]×Sizes[l] weight matrix row-major at off[l], its biases
	// right behind. W and B are theta's row views, keeping the exported
	// [layer][out][in] shape.
	theta []float64
	off   []int

	// The optimizer tensors, in theta's layout so a step is one flat loop:
	// m and v, the Adam moments, nil — read as
	// zeros, saved as zeros — until optim makes them for a network's first
	// training step or a restore that carries them; grad, the batch
	// gradient, nil until the first gradients call. A network that only
	// infers (every target net, a frozen policy, the cached pre-trained
	// model) is theta and scratch; a restored one that never trains again
	// holds its moments and no gradient.
	m, v []float64
	//acclint:ignore snapcover scratch: every gradients call zeroes it before it is read
	grad  []float64
	adamT int

	// version counts the writes to theta — Adam steps, CopyFrom, restores —
	// so a value computed from the weights can be kept until they change:
	// Agent keys its bootstrap memo by its target network's version.
	//acclint:ignore snapcover derived: a restore bumps it, and the memo it keys is not saved either
	version uint32

	// Scratch: acts[l] is layer l's input (acts[0] aliases the caller's),
	// acts[len(W)] the output Forward returns; delta[l] backs layer l's
	// output deltas during backprop.
	//acclint:ignore snapcover scratch: every forward pass overwrites it before it is read
	acts [][]float64
	//acclint:ignore snapcover scratch: every backward pass overwrites it before it is read
	delta [][]float64
}

// NewMLP builds a network with He-initialized weights.
func NewMLP(sizes []int, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("rl: MLP needs at least input and output layers")
	}
	m := newMLP(sizes)
	for l, wl := range m.W {
		scale := math.Sqrt(2 / float64(sizes[l]))
		for _, row := range wl {
			for i := range row {
				row[i] = rng.NormFloat64() * scale
			}
		}
	}
	return m
}

// NewMLPFromParams builds a network of the given shape holding a copy of
// params, every parameter in the layout Params returns: layer by layer,
// the weight rows then the biases. A length other than the shape's
// parameter count is an error.
func NewMLPFromParams(sizes []int, params []float64) (*MLP, error) {
	if len(sizes) < 2 || slices.Min(sizes) < 1 {
		return nil, fmt.Errorf("rl: layer sizes %v", sizes)
	}
	m := newMLP(sizes)
	if len(params) != len(m.theta) {
		return nil, fmt.Errorf("rl: %d parameters for layer sizes %v, want %d", len(params), sizes, len(m.theta))
	}
	copy(m.theta, params)
	return m, nil
}

// newMLP allocates a zero network of the given shape: the parameters, their
// row views, and the scratch.
func newMLP(sizes []int) *MLP {
	m := &MLP{Sizes: append([]int(nil), sizes...), off: make([]int, len(sizes)-1)}
	n := 0
	for l := range m.off {
		m.off[l] = n
		n += (sizes[l] + 1) * sizes[l+1]
	}
	m.theta = make([]float64, n)
	m.W, m.B = m.rows(m.theta)
	m.acts = make([][]float64, len(sizes))
	m.delta = make([][]float64, len(m.off))
	for l := range m.off {
		m.acts[l+1] = make([]float64, sizes[l+1])
		m.delta[l] = make([]float64, sizes[l+1])
	}
	return m
}

// optim returns the Adam moments m and v, making them — zeroed, on one
// backing array — the first time the network trains.
func (m *MLP) optim() (mom, vel []float64) {
	if m.m == nil {
		n := len(m.theta)
		buf := make([]float64, 2*n)
		m.m, m.v = buf[:n:n], buf[n:]
	}
	return m.m, m.v
}

// rows returns the [layer][out][in] and [layer][out] views of a tensor in
// theta's layout.
func (m *MLP) rows(flat []float64) ([][][]float64, [][]float64) {
	w := make([][][]float64, len(m.off))
	b := make([][]float64, len(m.off))
	for l, at := range m.off {
		in, out := m.Sizes[l], m.Sizes[l+1]
		w[l] = make([][]float64, out)
		for o := range w[l] {
			w[l][o] = flat[at : at+in : at+in]
			at += in
		}
		b[l] = flat[at : at+out : at+out]
	}
	return w, b
}

// layer returns layer l's block of a tensor in theta's layout: its weight
// rows, then its biases.
func (m *MLP) layer(flat []float64, l int) []float64 {
	at := m.off[l]
	return flat[at : at+(m.Sizes[l]+1)*m.Sizes[l+1]]
}

// NumParams returns the number of trainable parameters.
func (m *MLP) NumParams() int { return len(m.theta) }

// Params returns the network's parameters, layer by layer the weight rows
// then the biases: the layout NewMLPFromParams takes. The slice is the
// network's own.
func (m *MLP) Params() []float64 { return m.theta }

// Digest is the FNV-64a of the parameters' little-endian Float64bits, in
// Params order: equal digests mean equal weights, to the bit.
func (m *MLP) Digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range m.theta {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
		h.Write(b[:])
	}
	return h.Sum64()
}

// ForwardFlops returns the floating-point operations of one inference: a
// multiply and an add per weight, 2·in·out per layer.
func (m *MLP) ForwardFlops() int {
	n := 0
	for l := 0; l < len(m.Sizes)-1; l++ {
		n += 2 * m.Sizes[l] * m.Sizes[l+1]
	}
	return n
}

// Forward computes the network output for input x into the instance's
// scratch buffers. The returned slice is owned by the MLP and only valid
// until the next Forward/TrainBatch call; callers that need the values
// longer must copy them.
func (m *MLP) Forward(x []float64) []float64 {
	return m.forwardTrace(x)[len(m.off)]
}

// forwardTrace runs a forward pass keeping every layer's activations for
// backprop in the acts scratch.
func (m *MLP) forwardTrace(x []float64) [][]float64 {
	m.acts[0] = x
	last := len(m.off) - 1
	for l := range m.off {
		forward(m.layer(m.theta, l), m.acts[l][:m.Sizes[l]], m.acts[l+1], l < last)
	}
	return m.acts
}

// Sample is one supervised regression target on a single output unit —
// exactly the shape Q-learning needs (fit Q(s,a) for the taken action only).
type Sample struct {
	X      []float64
	Action int
	Target float64
}

// TrainBatch performs one Adam step on the mean squared error of the batch
// and returns the batch loss.
func (m *MLP) TrainBatch(batch []Sample, lr float64) float64 {
	return m.trainBatch(batch, lr, nil)
}

// trainBatch is TrainBatch, running the batch's passes ln.w samples at a
// time through ln when it is not nil.
func (m *MLP) trainBatch(batch []Sample, lr float64, ln *lanes) float64 {
	if len(batch) == 0 {
		return 0
	}
	loss := m.gradients(batch, ln)
	m.adamStep(lr)
	return loss
}

// adamStep applies the Adam update with standard hyperparameters to every
// parameter, reading the gradient the last gradients call left in grad.
func (m *MLP) adamStep(lr float64) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	m.adamT++
	m.version++
	k := adamConsts{
		beta1: beta1, c1: 1 - beta1,
		beta2: beta2, c2: 1 - beta2,
		lr:  lr,
		bc1: 1 - math.Pow(beta1, float64(m.adamT)),
		bc2: 1 - math.Pow(beta2, float64(m.adamT)),
		eps: eps,
	}
	mom, vel := m.optim()
	adamVec(m.theta, mom, vel, m.grad, &k)
}

// Clone returns a deep copy (optimizer state reset).
func (m *MLP) Clone() *MLP {
	c := newMLP(m.Sizes)
	copy(c.theta, m.theta)
	return c
}

// CopyFrom copies weights from other, which must have the same shape.
func (m *MLP) CopyFrom(other *MLP) {
	if !slices.Equal(m.Sizes, other.Sizes) {
		panic(fmt.Sprintf("rl: CopyFrom %v into %v", other.Sizes, m.Sizes))
	}
	copy(m.theta, other.theta)
	m.version++
}

// Argmax returns the index of the largest value (first on ties).
func Argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
