package rl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMLPShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{12, 20, 40, 40, 20}, rng)
	out := m.Forward(make([]float64, 12))
	if len(out) != 20 {
		t.Fatalf("output dim %d, want 20", len(out))
	}
	// Paper §6: the {20,40,40,20} net costs on the order of a few K params.
	if p := m.NumParams(); p < 2000 || p > 6000 {
		t.Fatalf("param count %d implausible for paper net", p)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP([]int{2, 16, 16, 1}, rng)
	data := [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	var batch []Sample
	for _, d := range data {
		batch = append(batch, Sample{X: []float64{d[0], d[1]}, Action: 0, Target: d[2]})
	}
	var loss float64
	for i := 0; i < 3000; i++ {
		loss = m.TrainBatch(batch, 5e-3)
	}
	if loss > 0.01 {
		t.Fatalf("XOR loss %v after training, want < 0.01", loss)
	}
	for _, d := range data {
		got := m.Forward([]float64{d[0], d[1]})[0]
		if math.Abs(got-d[2]) > 0.2 {
			t.Errorf("XOR(%v,%v) = %v, want %v", d[0], d[1], got, d[2])
		}
	}
}

func TestMLPTrainOnlyUpdatesChosenAction(t *testing.T) {
	// Gradient masking: training action 0 must not directly fit action 1's
	// output toward the target.
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{2, 8, 2}, rng)
	x := []float64{0.5, -0.25}
	before := m.Forward(x)
	for i := 0; i < 200; i++ {
		m.TrainBatch([]Sample{{X: x, Action: 0, Target: 3}}, 1e-2)
	}
	after := m.Forward(x)
	if math.Abs(after[0]-3) > 0.1 {
		t.Fatalf("action 0 output %v, want ~3", after[0])
	}
	// Action 1 moves only via shared hidden layers; it must not converge to
	// the target too.
	if math.Abs(after[1]-3) < 0.5 && math.Abs(before[1]-3) > 1 {
		t.Fatalf("action 1 output %v followed the target; masking broken", after[1])
	}
}

// TestMLPSerializationRoundTrip: Params, read back through
// NewMLPFromParams, is the same network — the path a compiled-in parameter
// table takes.
func TestMLPSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP([]int{4, 8, 3}, rng)
	m2, err := NewMLPFromParams(m.Sizes, append([]float64(nil), m.Params()...))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Digest() != m.Digest() {
		t.Fatalf("digest %016x after round trip, want %016x", m2.Digest(), m.Digest())
	}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	a, b := m.Forward(x), m2.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output mismatch after round trip: %v vs %v", a, b)
		}
	}
}

func TestMLPFromParamsRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		sizes []int
		n     int
	}{
		{[]int{2}, 0},       // no output layer
		{[]int{2, 0, 1}, 1}, // an empty layer
		{[]int{-2, 3}, 0},   // a negative width
		{[]int{2, 3}, 8},    // one parameter short
		{[]int{2, 3}, 10},   // one parameter over
	} {
		if _, err := NewMLPFromParams(tc.sizes, make([]float64, tc.n)); err == nil {
			t.Errorf("sizes %v with %d parameters: no error", tc.sizes, tc.n)
		}
	}
	if _, err := NewMLPFromParams([]int{2, 3}, make([]float64, 9)); err != nil {
		t.Fatalf("well-formed parameters rejected: %v", err)
	}
}

func TestReplayRingBuffer(t *testing.T) {
	r := NewReplay(3)
	for i := 0; i < 5; i++ {
		r.Add(Transition{Action: i})
	}
	if r.Len() != 3 {
		t.Fatalf("len %d, want 3", r.Len())
	}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		seen[r.At(i).Action] = true
	}
	// Oldest (0,1) must be evicted.
	if seen[0] || seen[1] {
		t.Fatalf("old transitions not evicted: %v", seen)
	}
	for _, want := range []int{2, 3, 4} {
		if !seen[want] {
			t.Fatalf("transition %d missing: %v", want, seen)
		}
	}
}

func TestReplaySampleProperty(t *testing.T) {
	f := func(n uint8, k uint8) bool {
		r := NewReplay(64)
		for i := 0; i < int(n); i++ {
			r.Add(Transition{Action: i})
		}
		rng := rand.New(rand.NewSource(int64(k)))
		s := r.Sample(rng, make([]Transition, k))
		if r.Len() == 0 {
			return s == nil
		}
		if len(s) != int(k) {
			return false
		}
		for _, tr := range s {
			// Every sampled transition must be one that was added.
			if tr.Action < 0 || tr.Action >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 3, 2}) != 1 {
		t.Fatal("argmax wrong")
	}
	if Argmax([]float64{5}) != 0 {
		t.Fatal("single-element argmax wrong")
	}
	if Argmax([]float64{2, 2, 2}) != 0 {
		t.Fatal("tie must pick first")
	}
}

func TestEpsilonDecay(t *testing.T) {
	cfg := DefaultAgentConfig(4, 3)
	cfg.EpsStart, cfg.EpsEnd, cfg.EpsDecay = 1, 0.1, 0.9
	rng := rand.New(rand.NewSource(5))
	a := NewAgent(cfg, rng)
	state := make([]float64, 4)
	for i := 0; i < 200; i++ {
		a.Act(state, rng)
	}
	if a.Epsilon() > cfg.EpsEnd*1.01 {
		t.Fatalf("epsilon %v, want ~floor %v", a.Epsilon(), cfg.EpsEnd)
	}
	if a.Epsilon() < cfg.EpsEnd {
		t.Fatalf("epsilon %v dropped below floor %v", a.Epsilon(), cfg.EpsEnd)
	}
}

// TestAgentSolvesBandit: a contextual two-armed bandit where the optimal arm
// flips with the (one-hot) context. DDQN should learn it comfortably.
func TestAgentSolvesBandit(t *testing.T) {
	cfg := DefaultAgentConfig(2, 2)
	cfg.Hidden = []int{16}
	cfg.EpsDecay = 0.995
	cfg.Gamma = 0 // pure bandit
	rng := rand.New(rand.NewSource(6))
	a := NewAgent(cfg, rng)

	ctx := func(i int) []float64 {
		if i == 0 {
			return []float64{1, 0}
		}
		return []float64{0, 1}
	}
	reward := func(c, arm int) float64 {
		if c == arm {
			return 1
		}
		return 0
	}
	for step := 0; step < 2000; step++ {
		c := rng.Intn(2)
		s := ctx(c)
		act := a.Act(s, rng)
		a.Observe(Transition{State: s, Action: act, Reward: reward(c, act), Next: ctx(rng.Intn(2)), Terminal: true})
		a.TrainStep(rng)
	}
	for c := 0; c < 2; c++ {
		if got := Argmax(a.Eval.Forward(ctx(c))); got != c {
			t.Fatalf("context %d: greedy action %d, want %d", c, got, c)
		}
	}
}

// TestDDQNTargetUsesEvalSelection ensures the double-DQN path differs from
// plain DQN when the two networks disagree.
func TestDDQNvsDQNTargets(t *testing.T) {
	cfg := DefaultAgentConfig(1, 2)
	cfg.Hidden = []int{4}
	cfg.BatchSize = 1
	cfg.TargetSync = 1 << 30 // never sync during the test
	rng := rand.New(rand.NewSource(7))
	a := NewAgent(cfg, rng)
	// Make eval and target disagree by training eval only.
	for i := 0; i < 400; i++ {
		a.Eval.TrainBatch([]Sample{{X: []float64{1}, Action: 0, Target: 10}, {X: []float64{1}, Action: 1, Target: -10}}, 1e-2)
	}
	evalQ := a.Eval.Forward([]float64{1})
	targQ := a.Target.Forward([]float64{1})
	if Argmax(evalQ) == Argmax(targQ) && math.Abs(targQ[0]-evalQ[0]) < 1 {
		t.Skip("networks did not diverge; seed-dependent setup failed")
	}
	// DDQN bootstraps target[argmax(eval)]; DQN bootstraps max(target).
	ddqn := targQ[Argmax(evalQ)]
	dqn := targQ[Argmax(targQ)]
	if ddqn == dqn {
		t.Skip("selection coincided")
	}
	// Sanity: max(target) >= target[argmax(eval)] always.
	if dqn < ddqn {
		t.Fatalf("max(target)=%v < target[argmax(eval)]=%v", dqn, ddqn)
	}
}

func TestTargetSyncHappens(t *testing.T) {
	cfg := DefaultAgentConfig(2, 2)
	cfg.Hidden = []int{8}
	cfg.BatchSize = 4
	cfg.TargetSync = 10
	rng := rand.New(rand.NewSource(8))
	a := NewAgent(cfg, rng)
	for i := 0; i < 64; i++ {
		a.Observe(Transition{State: []float64{1, 0}, Action: i % 2, Reward: float64(i % 2), Next: []float64{0, 1}})
	}
	for i := 0; i < 10; i++ {
		a.TrainStep(rng)
	}
	// Right after a sync the two nets must agree exactly.
	x := []float64{1, 0}
	e, tg := a.Eval.Forward(x), a.Target.Forward(x)
	for i := range e {
		if e[i] != tg[i] {
			t.Fatalf("after %d steps with sync=10, eval %v != target %v", a.TrainSteps(), e, tg)
		}
	}
}

// TestGradientsMatchNumerical verifies backprop against central-difference
// numerical gradients on a small network.
func TestGradientsMatchNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP([]int{3, 5, 2}, rng)
	batch := []Sample{
		{X: []float64{0.2, -0.4, 0.7}, Action: 0, Target: 0.3},
		{X: []float64{-0.1, 0.9, 0.5}, Action: 1, Target: -0.8},
	}
	loss := func() float64 {
		var l float64
		for _, s := range batch {
			out := m.Forward(s.X)
			d := out[s.Action] - s.Target
			l += d * d
		}
		return l / float64(len(batch))
	}
	m.gradients(batch, nil)
	gW, gB := m.rows(m.grad)
	const eps = 1e-6
	check := func(ptr *float64, analytic float64, what string) {
		orig := *ptr
		*ptr = orig + eps
		lp := loss()
		*ptr = orig - eps
		lm := loss()
		*ptr = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("%s: numeric %v vs analytic %v", what, numeric, analytic)
		}
	}
	for l := range m.W {
		for o := range m.W[l] {
			for i := range m.W[l][o] {
				check(&m.W[l][o][i], gW[l][o][i], "weight")
			}
			check(&m.B[l][o], gB[l][o], "bias")
		}
	}
}
