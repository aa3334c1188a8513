package rl

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// defaultNaN is the one NaN the tests feed the kernels: the quiet NaN x86
// itself produces (∞−∞, 0·∞). When both operands of an operation are NaN,
// the result carries the first operand's payload, and Go's compiler picks
// the operand order of a commutative product or sum as registers fall (the
// Go backward kernel flips it within one block), so NaN payloads are not
// part of the kernels' contract. With a single payload in play every NaN
// of a run is this one, and Float64bits equality covers everything else.
var defaultNaN = math.Float64frombits(0xfff8_0000_0000_0000)

// canonical maps every NaN to defaultNaN.
func canonical(x float64) float64 {
	if x != x {
		return defaultNaN
	}
	return x
}

// specials are the values floating point treats apart: NaN, ±Inf, ±0,
// subnormals, the extremes of the normal range.
var specials = []float64{
	defaultNaN, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072014e-308 / 3, math.MaxFloat64, -math.MaxFloat64,
	2.2250738585072014e-308, 1, -1,
}

// simdWidths are layer widths on both sides of every four-wide tail, plus
// the paper's.
var simdWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 20, 40, 41}

// simdCounts are sample counts on both sides of a group of four, plus the
// paper's batch.
var simdCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 32}

// TestSIMDKernelsMatchGo holds the AVX2 kernels to the Go kernels bit for
// bit: forward over four samples per lane against four single-sample
// passes, backward folding a sequence of samples into one gradient block
// (with and without a layer below), and the Adam step. Every shape leaves
// every tail; deltas have zero rows of both signs; values are ordinary
// and, in a second pass, one in four from specials.
func TestSIMDKernelsMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("the CPU has no AVX2: the Go kernels are the only path")
	}
	rng := rand.New(rand.NewSource(28))
	ordinary := func() float64 { return rng.NormFloat64() }
	special := func() float64 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	for _, n := range simdWidths {
		for _, out := range simdWidths {
			for _, count := range simdCounts {
				for _, relu := range []bool{false, true} {
					name := fmt.Sprintf("n=%d/out=%d/count=%d/relu=%v", n, out, count, relu)
					checkSIMDLayer(t, name+"/ordinary", n, out, count, relu, ordinary, rng)
					checkSIMDLayer(t, name+"/special", n, out, count, relu, special, rng)
				}
			}
		}
	}

	// ReLU inputs of exactly ±0: zero inputs against negative weights give
	// -0 products, so the sum keeps the bias's sign.
	const n, out = 8, 8
	p := make([]float64, (n+1)*out)
	for i := range p[:n*out] {
		p[i] = -1 - rng.Float64()
	}
	for o := range p[n*out:] {
		p[n*out+o] = math.Copysign(0, float64(o%2)-0.5)
	}
	x4 := make([]float64, 4*n)
	got := make([]float64, 4*out)
	forward4(p, x4, got, true)
	want := make([]float64, out)
	forward(p, x4[:n], want, true)
	for o := range want {
		if want[o] != 0 || math.Signbit(want[o]) != (o%2 == 0) {
			t.Fatalf("pre-activation %d is %v with sign bit %v: the case tests nothing", o, want[o], math.Signbit(want[o]))
		}
		for s := 0; s < 4; s++ {
			sameBits(t, got[4*o+s:4*o+s+1], want[o:o+1], "ReLU of ±0, row ", o, " lane ", s)
		}
	}
}

// FuzzSIMDKernels runs the comparison of TestSIMDKernelsMatchGo on fuzzed
// shapes and bit patterns: widths up to 48, up to 36 samples, every value
// read from the input's 64-bit words (NaNs made defaultNaN), then from a
// generator seeded by the first word once the input runs out.
func FuzzSIMDKernels(f *testing.F) {
	if !useAVX2 {
		f.Skip("the CPU has no AVX2: the Go kernels are the only path")
	}
	f.Add(uint8(12), uint8(20), uint8(32), true, []byte{})
	f.Add(uint8(41), uint8(5), uint8(3), false, make([]byte, 64))
	f.Add(uint8(3), uint8(40), uint8(7), true, binary.LittleEndian.AppendUint64(nil, 0x7ff0_0000_0000_0001))
	f.Fuzz(func(t *testing.T, n, out, count uint8, relu bool, data []byte) {
		var seed int64
		if len(data) >= 8 {
			seed = int64(binary.LittleEndian.Uint64(data))
		}
		rng := rand.New(rand.NewSource(seed))
		val := func() float64 {
			if len(data) >= 8 {
				x := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				return canonical(x)
			}
			return canonical(math.Float64frombits(rng.Uint64()))
		}
		checkSIMDLayer(t, "fuzz", 1+int(n)%48, 1+int(out)%48, 1+int(count)%36, relu, val, rng)
	})
}

// checkSIMDLayer runs one layer of n inputs and out rows through the AVX2
// kernels and the Go kernels on the same values and fails t on the first
// bit that differs: the forward outputs of every group of four samples,
// the gradient block after folding count samples with and without a layer
// below, each sample's prev, and theta and both moments after an Adam step
// over the layer's parameters.
func checkSIMDLayer(t *testing.T, name string, n, out, count int, relu bool, val func() float64, rng *rand.Rand) {
	t.Helper()
	vec := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = val()
		}
		return v
	}
	size := (n + 1) * out
	p := vec(size)
	xs := make([][]float64, count)
	ds := make([][]float64, count)
	prevs := make([][]float64, count)
	for s := range xs {
		xs[s], ds[s], prevs[s] = vec(n), vec(out), vec(n)
		for o := range ds[s] {
			if rng.Intn(3) == 0 { // a dead unit or an untrained action
				ds[s][o] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
		}
	}

	x4, got4, want := make([]float64, 4*n), make([]float64, 4*out), make([]float64, out)
	for s0 := 0; s0+4 <= count; s0 += 4 {
		for i := 0; i < n; i++ {
			for s := 0; s < 4; s++ {
				x4[4*i+s] = xs[s0+s][i]
			}
		}
		forward4(p, x4, got4, relu)
		for s := 0; s < 4; s++ {
			forward(p, xs[s0+s], want, relu)
			for o := range want {
				sameBits(t, got4[4*o+s:4*o+s+1], want[o:o+1], name, " forward sample ", s0+s, " row ", o)
			}
		}
	}

	for _, below := range []bool{true, false} {
		g, gWant := vec(size), make([]float64, size)
		copy(gWant, g)
		for s := range xs {
			var prev, prevWant []float64
			if below {
				prev, prevWant = append([]float64(nil), prevs[s]...), append([]float64(nil), prevs[s]...)
			}
			backwardVec(p, g, xs[s], ds[s], prev)
			backward(p, gWant, xs[s], ds[s], prevWant)
			sameBits(t, prev, prevWant, name, " prev of sample ", s)
		}
		sameBits(t, g, gWant, name, " gradient, layer below ", below)
	}

	theta, mom, vel, grad := vec(size), vec(size), vec(size), vec(size)
	thetaW, momW, velW := append([]float64(nil), theta...), append([]float64(nil), mom...), append([]float64(nil), vel...)
	k := adamConsts{beta1: 0.9, c1: 1 - 0.9, beta2: 0.999, c2: 1 - 0.999, lr: val(), bc1: val(), bc2: val(), eps: 1e-8}
	adamVec(theta, mom, vel, grad, &k)
	adam(thetaW, momW, velW, grad, &k)
	sameBits(t, theta, thetaW, name, " Adam theta")
	sameBits(t, mom, momW, name, " Adam m")
	sameBits(t, vel, velW, name, " Adam v")
}
