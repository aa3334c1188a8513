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

// simdWidths are layer widths on both sides of every four- and eight-wide
// tail, plus the paper's.
var simdWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 20, 33, 40, 41}

// simdCounts are sample counts on both sides of a group of four and of
// eight, plus the paper's batch.
var simdCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 32, 33}

// hostPaths are the assembly kernel sets the host runs: none off amd64 or
// without AVX2, AVX2 alone, or AVX2 and AVX-512. (Asked once: CPUID traps
// to the hypervisor on a virtual machine.)
var hostPaths = func() []kernelPath {
	var paths []kernelPath
	for k := goKernels + 1; k <= bestPath(); k++ {
		paths = append(paths, k)
	}
	return paths
}()

// onPath runs fn with simd switched to k, then switches it back.
func onPath(k kernelPath, fn func()) {
	defer func(was kernelPath) { simd = was }(simd)
	simd = k
	fn()
}

var pathNames = [...]string{goKernels: "go", avx2Kernels: "avx2", avx512Kernels: "avx512"}

// TestKernelPath names the kernel set this host runs (go test -v).
func TestKernelPath(t *testing.T) {
	if simd != bestPath() {
		t.Fatalf("simd is %s, the host's best is %s", pathNames[simd], pathNames[bestPath()])
	}
	t.Logf("internal/rl kernels: %s", pathNames[simd])
}

// TestSIMDKernelsMatchGo holds each assembly kernel set the host runs to
// the Go kernels bit for bit: forward over four or eight samples per lane
// against single-sample passes, backward folding a sequence of samples into
// one gradient block (with and without a layer below, whose deltas it
// sets and masks), and the Adam step. Every shape leaves every tail;
// deltas have zero rows of both signs; values are ordinary and, in a
// second pass, one in four from specials.
func TestSIMDKernelsMatchGo(t *testing.T) {
	paths := hostPaths
	if len(paths) == 0 {
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

	// Layers of more rows than the AVX-512 backward lists at once (64).
	for _, out := range []int{63, 64, 65, 129} {
		for _, n := range []int{7, 9, 40} {
			checkSIMDLayer(t, fmt.Sprintf("n=%d/out=%d", n, out), n, out, 9, true, special, rng)
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
	want := make([]float64, out)
	forward(p, make([]float64, n), want, true)
	for o := range want {
		if want[o] != 0 || math.Signbit(want[o]) != (o%2 == 0) {
			t.Fatalf("pre-activation %d is %v with sign bit %v: the case tests nothing", o, want[o], math.Signbit(want[o]))
		}
	}
	for _, k := range paths {
		w := k.width()
		got := make([]float64, w*out)
		forwardWide(k, p, make([]float64, w*n), got, true)
		for o := range want {
			for s := 0; s < w; s++ {
				sameBits(t, got[w*o+s:w*o+s+1], want[o:o+1], pathNames[k], " ReLU of ±0, row ", o, " lane ", s)
			}
		}
	}
}

// TestLanesMatchGo holds the many-sample helpers of each path the host
// runs to their one-sample meaning: argmaxes to Argmax of each sample's
// outputs, on values with ties, NaN and ±0, and split to reading the
// interleaved hidden values sample by sample. Widths straddle the groups
// of eight units split regroups at once.
func TestLanesMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	val := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return float64(rng.Intn(3)) // ties
		}
		return rng.NormFloat64()
	}
	for _, k := range hostPaths {
		w := k.width()
		for _, sizes := range [][]int{{3, 1, 1}, {12, 20, 40, 40, 20}, {2, 7, 8, 9, 15, 16, 17, 33, 5}} {
			ln := newLanes(sizes, w)
			last := len(sizes) - 1
			for trial := 0; trial < 40; trial++ {
				for _, a := range ln.acts {
					for i := range a {
						a[i] = val()
					}
				}
				q := ln.acts[last]
				onPath(k, func() { ln.argmaxes(q) })
				for s := 0; s < w; s++ {
					v := make([]float64, sizes[last])
					for o := range v {
						v[o] = q[w*o+s]
					}
					if got, want := ln.best[s], Argmax(v); got != want {
						t.Fatalf("%s %v: argmax of lane %d is %d, want %d (%v)", pathNames[k], sizes, s, got, want, v)
					}
				}
				// Backward's order: the deepest hidden layer first, each over
				// the last.
				for l := last - 1; l > 0; l-- {
					onPath(k, func() { ln.split(l) })
					for s := 0; s < w; s++ {
						for i, x := range ln.trace[s][l] {
							sameBits(t, []float64{x}, []float64{ln.acts[l][w*i+s]}, pathNames[k], sizes, " split layer ", l, " sample ", s, " unit ", i)
						}
					}
				}
			}
		}
	}
}

// forwardWide is the forward kernel of path k's width.
func forwardWide(k kernelPath, p, x, out []float64, relu bool) {
	if k == avx512Kernels {
		forward8(p, x, out, relu)
		return
	}
	forward4(p, x, out, relu)
}

// FuzzSIMDKernels runs the comparison of TestSIMDKernelsMatchGo on fuzzed
// shapes and bit patterns: widths up to 48, up to 36 samples, every value
// read from the input's 64-bit words (NaNs made defaultNaN), then from a
// generator seeded by the first word once the input runs out.
func FuzzSIMDKernels(f *testing.F) {
	if len(hostPaths) == 0 {
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

// checkSIMDLayer runs one layer of n inputs and out rows through the Go
// kernels and then through each assembly kernel set the host runs, on the
// same values, and fails t on the first bit that differs: the forward
// outputs of every group of the path's width, the gradient block after
// folding count samples with and without a layer below, each sample's
// prev, and theta and both moments after an Adam step over the layer's
// parameters.
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
	for s := range xs {
		xs[s], ds[s] = vec(n), vec(out)
		for o := range ds[s] {
			if rng.Intn(3) == 0 { // a dead unit or an untrained action
				ds[s][o] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
		}
	}
	fwd := make([][]float64, count)
	for s, x := range xs {
		fwd[s] = make([]float64, out)
		forward(p, x, fwd[s], relu)
	}
	// The Go kernels' gradient blocks from g0, and each sample's prev,
	// which the kernels set over the stale stale[s].
	g0, stale := vec(size), make([][]float64, count)
	gWant, prevWant := [2][]float64{}, make([][]float64, count)
	for s := range stale {
		stale[s] = vec(n)
	}
	for b, below := range []bool{false, true} {
		gWant[b] = append([]float64(nil), g0...)
		for s := range xs {
			var prev []float64
			if below {
				prev = append([]float64(nil), stale[s]...)
				prevWant[s] = prev
			}
			onPath(goKernels, func() { backwardLayer(p, gWant[b], xs[s], ds[s], prev) })
		}
	}
	theta, mom, vel, grad := vec(size), vec(size), vec(size), vec(size)
	c := adamConsts{beta1: 0.9, c1: 1 - 0.9, beta2: 0.999, c2: 1 - 0.999, lr: val(), bc1: val(), bc2: val(), eps: 1e-8}
	thetaW, momW, velW := append([]float64(nil), theta...), append([]float64(nil), mom...), append([]float64(nil), vel...)
	adam(thetaW, momW, velW, grad, &c)

	for _, k := range hostPaths {
		name := pathNames[k] + "/" + name
		w := k.width()
		xw, gotw := make([]float64, w*n), make([]float64, w*out)
		for s0 := 0; s0+w <= count; s0 += w {
			for i := 0; i < n; i++ {
				for s := 0; s < w; s++ {
					xw[w*i+s] = xs[s0+s][i]
				}
			}
			forwardWide(k, p, xw, gotw, relu)
			for s := 0; s < w; s++ {
				for o, want := range fwd[s0+s] {
					sameBits(t, gotw[w*o+s:w*o+s+1], []float64{want}, name, " forward sample ", s0+s, " row ", o)
				}
			}
		}

		for b, below := range []bool{false, true} {
			g := append([]float64(nil), g0...)
			for s := range xs {
				var prev []float64
				if below {
					prev = append([]float64(nil), stale[s]...)
				}
				onPath(k, func() { backwardLayer(p, g, xs[s], ds[s], prev) })
				if below {
					sameBits(t, prev, prevWant[s], name, " prev of sample ", s)
				}
			}
			sameBits(t, g, gWant[b], name, " gradient, layer below ", below)
		}

		th, m, v := append([]float64(nil), theta...), append([]float64(nil), mom...), append([]float64(nil), vel...)
		onPath(k, func() { adamVec(th, m, v, grad, &c) })
		sameBits(t, th, thetaW, name, " Adam theta")
		sameBits(t, m, momW, name, " Adam m")
		sameBits(t, v, velW, name, " Adam v")
	}
}
