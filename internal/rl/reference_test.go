package rl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMLP is the arithmetic the row-blocked kernels replaced, kept verbatim
// as the reference they are held to bit for bit: one output row at a time
// over [][][]float64, one serial add chain per dot product, gradient and
// delta cells updated row by row, Adam walking the nested slices.
type refMLP struct {
	W, mW, vW, gW [][][]float64
	B, mB, vB, gB [][]float64
	adamT         int
	acts, delta   [][]float64
}

func refFrom(m *MLP) *refMLP {
	r := &refMLP{adamT: m.adamT, acts: make([][]float64, len(m.W)+1)}
	dup3 := func(x [][][]float64) [][][]float64 {
		out := make([][][]float64, len(x))
		for l := range x {
			out[l] = make([][]float64, len(x[l]))
			for o := range x[l] {
				out[l][o] = append([]float64(nil), x[l][o]...)
			}
		}
		return out
	}
	dup2 := func(x [][]float64) [][]float64 {
		out := make([][]float64, len(x))
		for l := range x {
			out[l] = append([]float64(nil), x[l]...)
		}
		return out
	}
	mom, vel := m.optim()
	mW, mB := m.rows(mom)
	vW, vB := m.rows(vel)
	gW, gB := m.rows(gradOrZeros(m))
	r.W, r.mW, r.vW, r.gW = dup3(m.W), dup3(mW), dup3(vW), dup3(gW)
	r.B, r.mB, r.vB, r.gB = dup2(m.B), dup2(mB), dup2(vB), dup2(gB)
	r.delta = dup2(m.B)
	for l := range r.B {
		r.acts[l+1] = make([]float64, len(r.B[l]))
	}
	return r
}

func (m *refMLP) layerForward(l int, in, out []float64, relu bool) {
	for o, row := range m.W[l] {
		s := m.B[l][o]
		for i, w := range row {
			s += w * in[i]
		}
		if relu && s < 0 {
			s = 0
		}
		out[o] = s
	}
}

func (m *refMLP) forward(x []float64) []float64 {
	m.acts[0] = x
	for l := range m.W {
		m.layerForward(l, m.acts[l], m.acts[l+1], l < len(m.W)-1)
	}
	return m.acts[len(m.W)]
}

func (m *refMLP) gradients(batch []Sample) float64 {
	gW, gB := m.gW, m.gB
	for l := range gW {
		for o := range gW[l] {
			clear(gW[l][o])
		}
		clear(gB[l])
	}
	var loss float64
	inv := 1 / float64(len(batch))

	for _, s := range batch {
		out := m.forward(s.X)
		acts := m.acts
		err := out[s.Action] - s.Target
		loss += err * err

		delta := m.delta[len(m.W)-1]
		clear(delta)
		delta[s.Action] = 2 * err * inv

		for l := len(m.W) - 1; l >= 0; l-- {
			in := acts[l]
			var prev []float64
			if l > 0 {
				prev = m.delta[l-1]
				clear(prev)
			}
			for o, row := range m.W[l] {
				d := delta[o]
				if d == 0 {
					continue
				}
				gB[l][o] += d
				grow := gW[l][o]
				for i, w := range row {
					grow[i] += d * in[i]
					if l > 0 {
						prev[i] += d * w
					}
				}
			}
			if l > 0 {
				for i, a := range in {
					if a <= 0 {
						prev[i] = 0
					}
				}
				delta = prev
			}
		}
	}
	return loss * inv
}

func (m *refMLP) trainBatch(batch []Sample, lr float64) float64 {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	loss := m.gradients(batch)
	gW, gB := m.gW, m.gB
	m.adamT++
	bc1 := 1 - math.Pow(beta1, float64(m.adamT))
	bc2 := 1 - math.Pow(beta2, float64(m.adamT))
	for l := range m.W {
		for o := range m.W[l] {
			for i := range m.W[l][o] {
				g := gW[l][o][i]
				m.mW[l][o][i] = beta1*m.mW[l][o][i] + (1-beta1)*g
				m.vW[l][o][i] = beta2*m.vW[l][o][i] + (1-beta2)*g*g
				m.W[l][o][i] -= lr * (m.mW[l][o][i] / bc1) / (math.Sqrt(m.vW[l][o][i]/bc2) + eps)
			}
			g := gB[l][o]
			m.mB[l][o] = beta1*m.mB[l][o] + (1-beta1)*g
			m.vB[l][o] = beta2*m.vB[l][o] + (1-beta2)*g*g
			m.B[l][o] -= lr * (m.mB[l][o] / bc1) / (math.Sqrt(m.vB[l][o]/bc2) + eps)
		}
	}
	return loss
}

func (m *refMLP) copyFrom(o *refMLP) {
	for l := range m.W {
		for r := range m.W[l] {
			copy(m.W[l][r], o.W[l][r])
		}
		copy(m.B[l], o.B[l])
	}
}

// refAgent is the train step before learn(): a freshly allocated uniform
// draw per call and the target loop written out in place.
type refAgent struct {
	cfg          AgentConfig
	eval, target *refMLP
	memory       *Replay
	trainSteps   int
}

func (r *Replay) refSample(rng *rand.Rand, n int) []Transition {
	out := make([]Transition, n)
	for i := range out {
		out[i] = r.buf[rng.Intn(len(r.buf))]
	}
	return out
}

func (a *refAgent) trainStep(rng *rand.Rand, alpha float64) float64 {
	var batch []Transition
	if alpha > 0 {
		half := a.cfg.BatchSize / 2
		batch = a.memory.SamplePrioritized(rng, make([]Transition, a.cfg.BatchSize-half), RewardPriority, alpha)
		batch = append(batch, a.memory.refSample(rng, half)...)
	} else {
		batch = a.memory.refSample(rng, a.cfg.BatchSize)
	}
	samples := make([]Sample, len(batch))
	for i, t := range batch {
		y := t.Reward
		if !t.Terminal {
			var q float64
			if a.cfg.DoubleDQN {
				sel := Argmax(a.eval.forward(t.Next))
				q = a.target.forward(t.Next)[sel]
			} else {
				tq := a.target.forward(t.Next)
				q = tq[Argmax(tq)]
			}
			y += a.cfg.Gamma * q
		}
		samples[i] = Sample{X: t.State, Action: t.Action, Target: y}
	}
	loss := a.eval.trainBatch(samples, a.cfg.LR)
	a.trainSteps++
	if a.cfg.TargetSync > 0 && a.trainSteps%a.cfg.TargetSync == 0 {
		a.target.copyFrom(a.eval)
	}
	return loss
}

// sameBits fails the test unless a and b are bit-for-bit equal; what names
// the compared slice, fmt.Sprint style, and is rendered only on failure.
// It marks itself a helper only then: t.Helper walks the stack, and the
// kernel tests call this hundreds of thousands of times.
func sameBits(t *testing.T, a, b []float64, what ...any) {
	if len(a) != len(b) {
		t.Helper()
		t.Fatalf("%s: length %d vs reference %d", fmt.Sprint(what...), len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Helper()
			t.Fatalf("%s[%d]: %v (%#x) vs reference %v (%#x)", fmt.Sprint(what...), i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// sameTensors compares weights, both moments, the gradient scratch and the
// Adam step count of m against the reference.
func sameTensors(t *testing.T, m *MLP, r *refMLP, what ...any) {
	t.Helper()
	what = append(what, " layer ")
	mom, vel := m.optim()
	mW, mB := m.rows(mom)
	vW, vB := m.rows(vel)
	gW, gB := m.rows(gradOrZeros(m))
	for l := range m.W {
		for o := range m.W[l] {
			sameBits(t, m.W[l][o], r.W[l][o], append(what, l, " W row ", o)...)
			sameBits(t, mW[l][o], r.mW[l][o], append(what, l, " mW row ", o)...)
			sameBits(t, vW[l][o], r.vW[l][o], append(what, l, " vW row ", o)...)
			sameBits(t, gW[l][o], r.gW[l][o], append(what, l, " gradW row ", o)...)
		}
		sameBits(t, m.B[l], r.B[l], append(what, l, " B")...)
		sameBits(t, mB[l], r.mB[l], append(what, l, " mB")...)
		sameBits(t, vB[l], r.vB[l], append(what, l, " vB")...)
		sameBits(t, gB[l], r.gB[l], append(what, l, " gradB")...)
	}
	if m.adamT != r.adamT {
		t.Fatalf("%s: adamT %d vs reference %d", fmt.Sprint(what...), m.adamT, r.adamT)
	}
}

// gradOrZeros returns m's gradient buffer, or the zeros it stands for
// before the network's first gradients call.
func gradOrZeros(m *MLP) []float64 {
	if m.grad == nil {
		return make([]float64, len(m.theta))
	}
	return m.grad
}

// diffShapes exercise every tail of the four-row blocking (row counts 1, 3,
// 5, 41 leave 1, 3, 1, 1 rows over; 20 and 40 none) on both sides of a
// layer, and the paper's shape.
var diffShapes = [][]int{
	{12, 20, 40, 40, 20},
	{1, 1},
	{3, 5, 1},
	{5, 3, 41, 3},
	{41, 20, 5, 1, 3},
	{20, 41, 41, 5},
}

// killUnits drives a few hidden units of every layer permanently negative
// so their ReLUs are dead for every input: zero activations forward, zero
// deltas (skipped rows) backward.
func killUnits(m *MLP, rng *rand.Rand) {
	for l := 0; l < len(m.B)-1; l++ {
		for o := range m.B[l] {
			if rng.Intn(3) == 0 {
				m.B[l][o] = -1e3
			}
		}
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// allPaths returns the Go kernels and every assembly kernel set the host
// runs.
func allPaths() []kernelPath { return append([]kernelPath{goKernels}, hostPaths...) }

// TestDifferentialKernels holds Forward, gradients, loss and Adam to the
// reference arithmetic bit for bit, on shapes with every blocking tail,
// batches on both sides of a block of samples, and dead units — on every
// kernel path the host has, one sample at a time through TrainBatch and,
// on the assembly paths, the path's width at a time through the Agent's
// scratch.
func TestDifferentialKernels(t *testing.T) {
	for _, k := range allPaths() {
		for si, sizes := range diffShapes {
			for _, batchSize := range []int{1, 9, 31, 32} {
				for _, wide := range []bool{false, true} {
					if wide && k == goKernels {
						continue
					}
					name := fmt.Sprintf("%s/%v/batch%d/wide=%v", pathNames[k], sizes, batchSize, wide)
					onPath(k, func() { checkDifferentialKernels(t, name, sizes, batchSize, wide, int64(100*si+batchSize)) })
				}
			}
		}
	}
}

func checkDifferentialKernels(t *testing.T, name string, sizes []int, batchSize int, wide bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m := NewMLP(sizes, rng)
	killUnits(m, rng)
	ref := refFrom(m)
	var ln *lanes
	if wide {
		ln = newLanes(sizes, simd.width())
	}
	nOut := sizes[len(sizes)-1]
	for step := 0; step < 12; step++ {
		x := randVec(rng, sizes[0])
		sameBits(t, m.Forward(x), ref.forward(x), name, " Forward")

		batch := make([]Sample, batchSize)
		for i := range batch {
			batch[i] = Sample{X: randVec(rng, sizes[0]), Action: rng.Intn(nOut), Target: rng.NormFloat64()}
		}
		if step%4 == 3 {
			// A sample the network already fits exactly: its error, hence
			// every delta of its pass, is zero.
			batch[0].Target = ref.forward(batch[0].X)[batch[0].Action]
		}
		loss, want := m.trainBatch(batch, 1e-2, ln), ref.trainBatch(batch, 1e-2)
		sameBits(t, []float64{loss}, []float64{want}, name, " loss")
		sameTensors(t, m, ref, name, " step ", step)
	}
}

// TestDifferentialTrainStep runs agent train steps on every kernel path
// the host has — uniform and prioritized, DoubleDQN on and off, Terminal
// transitions in the memory, target syncs on the way; 200 of them for the
// paper's agent — against the reference agent fed by an identical rng
// stream: same draws, same losses, same weights and moments in both
// networks.
func TestDifferentialTrainStep(t *testing.T) {
	for _, k := range allPaths() {
		for si, sizes := range diffShapes {
			if len(sizes) < 3 {
				continue
			}
			for _, double := range []bool{true, false} {
				for _, alpha := range []float64{0, 0.6} {
					for _, batchSize := range []int{1, 31, 32} {
						name := fmt.Sprintf("%s/%v/ddqn=%v/alpha=%v/batch%d", pathNames[k], sizes, double, alpha, batchSize)
						long := si == 0 && alpha == 0 && batchSize == 32
						onPath(k, func() { checkDifferentialTrainStep(t, name, sizes, double, alpha, batchSize, int64(si), long) })
					}
				}
			}
		}
	}
}

func checkDifferentialTrainStep(t *testing.T, name string, sizes []int, double bool, alpha float64, batchSize int, seed int64, long bool) {
	cfg := DefaultAgentConfig(sizes[0], sizes[len(sizes)-1])
	cfg.Hidden = sizes[1 : len(sizes)-1]
	cfg.DoubleDQN = double
	cfg.BatchSize = batchSize
	cfg.TargetSync = 4
	cfg.ReplayCap = 96
	rng := rand.New(rand.NewSource(seed))
	a := NewAgent(cfg, rng)
	killUnits(a.Eval, rng)
	for i := 0; i < 150; i++ { // wraps the ring
		a.Observe(Transition{
			State:    randVec(rng, cfg.StateDim),
			Action:   rng.Intn(cfg.NumActions),
			Reward:   rng.Float64(),
			Next:     randVec(rng, cfg.StateDim),
			Terminal: rng.Intn(5) == 0,
		})
	}
	ref := &refAgent{cfg: cfg, eval: refFrom(a.Eval), target: refFrom(a.Target), memory: a.Memory}
	rngA, rngR := rand.New(rand.NewSource(77)), rand.New(rand.NewSource(77))
	steps := 10
	if long {
		steps = 200 // the paper's agent, through 50 target syncs
	}
	for step := 0; step < steps; step++ {
		var loss float64
		if alpha > 0 {
			loss = a.TrainStepPrioritized(rngA, alpha)
		} else {
			loss = a.TrainStep(rngA)
		}
		want := ref.trainStep(rngR, alpha)
		sameBits(t, []float64{loss}, []float64{want}, name, " loss at step ", step)
	}
	sameTensors(t, a.Eval, ref.eval, name, " eval")
	sameTensors(t, a.Target, ref.target, name, " target")
	if rngA.Int63() != rngR.Int63() {
		t.Fatalf("%s: rng streams diverged", name)
	}
}
