package rl

import "math"

// The dense kernels behind every MLP path. Contract (DESIGN.md "RL
// kernels"): a dot product adds its terms in ascending input index onto
// the bias, and a gradient or delta cell adds its contributions in
// ascending (sample, output row) order — so results are bit-identical to
// the one-row-at-a-time loops these replace. What the kernels are free to
// do is interleave *independent* sums: four output rows share each load of
// x (forward) or of the input activation and the delta cell (backward), and
// their floating-point add chains overlap instead of queueing.
//
// The Go kernels below are the whole path on CPUs without AVX2 and the
// reference the assembly kernels (kernels_amd64.s) are tested against.
// Those keep the contract per lane. forward4 and forward8 run four or
// eight samples side by side, one per lane; the backward kernels run four
// or eight neighbouring cells of one sample, the Adam kernel four, each
// its own sum. What the AVX2 kernels cannot fill four lanes with — the
// last rows of forward4, the last columns of backward, the last cells of
// Adam — goes through Go; the AVX-512 kernels take every row and column
// themselves, through masks. Both paths share the AVX2 Adam kernel.

// kernelPath names one set of dense kernels.
type kernelPath uint8

const (
	goKernels     kernelPath = iota // this file's: the reference, and the fallback
	avx2Kernels                     // kernels_amd64.s, four lanes
	avx512Kernels                   // kernels_amd64.s, eight lanes
)

// simd is the kernel set every MLP path runs, chosen once from what the
// CPU and the operating system report (bestPath). Tests switch it to hold
// each path the host has to the Go kernels.
var simd = bestPath()

// width returns how many samples one pass through the path's lanes
// carries: 0 for the Go kernels, which take samples one at a time.
func (k kernelPath) width() int { return [...]int{0, 4, 8}[k] }

// forward computes out[o] = b[o] + Σ_i w[o·n+i]·x[i], n = len(x), for one
// layer's block p — the len(out)×n row-major matrix w, then the biases b —
// clamping negatives to 0 when relu is set.
func forward(p, x, out []float64, relu bool) {
	n := len(x)
	w, b := p[:len(out)*n], p[len(out)*n:][:len(out)]
	o := 0
	for ; o+4 <= len(out); o += 4 {
		r := w[o*n : (o+4)*n]
		r0, r1, r2, r3 := r[:n], r[n:][:n], r[2*n:][:n], r[3*n:][:n]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		if relu {
			if s0 < 0 {
				s0 = 0
			}
			if s1 < 0 {
				s1 = 0
			}
			if s2 < 0 {
				s2 = 0
			}
			if s3 < 0 {
				s3 = 0
			}
		}
		out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
	}
	for ; o < len(out); o++ {
		s := b[o]
		for i, wi := range w[o*n:][:n] {
			s += wi * x[i]
		}
		if relu && s < 0 {
			s = 0
		}
		out[o] = s
	}
}

// forward4Go is forward for four samples interleaved, unit i of sample s at
// x4[4i+s] and output o at out4[4o+s], over the output rows from on.
func forward4Go(p, x4, out4 []float64, relu bool, from int) {
	n, out := len(x4)/4, len(out4)/4
	w, b := p[:out*n], p[out*n:][:out]
	for o := from; o < out; o++ {
		row := w[o*n:][:n]
		for s := 0; s < 4; s++ {
			acc := b[o]
			for i, wi := range row {
				acc += wi * x4[4*i+s]
			}
			if relu && acc < 0 {
				acc = 0
			}
			out4[4*o+s] = acc
		}
	}
}

// backward folds one sample's output deltas d of a layer into its gradient
// block g and, when prev is non-nil, into the deltas of the layer below:
// g[o·n+i] += d[o]·x[i], g's bias cell o += d[o], prev[i] += d[o]·p[o·n+i],
// with p the layer's parameter block. Rows with d[o] == 0 — every output
// but the trained action, every unit a ReLU switched off — are skipped
// outright, not multiplied through; the rest go four at a time in
// ascending o.
func backward(p, g, x, d, prev []float64) {
	n := len(x)
	w, gb := p[:len(d)*n], g[len(d)*n:][:len(d)]
	// Pending non-zero rows: offset into w/g and delta.
	var at [4]int
	var dv [4]float64
	k := 0
	for o, do := range d {
		if do == 0 {
			continue
		}
		gb[o] += do
		at[k], dv[k] = o*n, do
		k++
		if k < 4 {
			continue
		}
		k = 0
		d0, d1, d2, d3 := dv[0], dv[1], dv[2], dv[3]
		g0, g1, g2, g3 := g[at[0]:][:n], g[at[1]:][:n], g[at[2]:][:n], g[at[3]:][:n]
		if prev == nil {
			for i, xi := range x {
				g0[i] += d0 * xi
				g1[i] += d1 * xi
				g2[i] += d2 * xi
				g3[i] += d3 * xi
			}
			continue
		}
		w0, w1, w2, w3 := w[at[0]:][:n], w[at[1]:][:n], w[at[2]:][:n], w[at[3]:][:n]
		prev := prev[:n]
		for i, xi := range x {
			g0[i] += d0 * xi
			g1[i] += d1 * xi
			g2[i] += d2 * xi
			g3[i] += d3 * xi
			p := prev[i]
			p += d0 * w0[i]
			p += d1 * w1[i]
			p += d2 * w2[i]
			p += d3 * w3[i]
			prev[i] = p
		}
	}
	for j := 0; j < k; j++ {
		do, gr := dv[j], g[at[j]:][:n]
		if prev == nil {
			for i, xi := range x {
				gr[i] += do * xi
			}
			continue
		}
		wr, prev := w[at[j]:][:n], prev[:n]
		for i, xi := range x {
			gr[i] += do * xi
			prev[i] += do * wr[i]
		}
	}
}

// adamConsts are one Adam step's scalars, each rounded once by Go: the
// decay rates and their complements, the learning rate, the two bias
// corrections and the denominator's epsilon. The assembly kernels read them
// by offset (go_asm.h).
type adamConsts struct {
	beta1, c1, beta2, c2, lr, bc1, bc2, eps float64
}

// adam applies one Adam update with k to every parameter of theta, from
// the gradient grad, moving the moments mom and vel.
func adam(theta, mom, vel, grad []float64, k *adamConsts) {
	beta1, c1, beta2, c2, lr, bc1, bc2, eps := k.beta1, k.c1, k.beta2, k.c2, k.lr, k.bc1, k.bc2, k.eps
	mom, vel = mom[:len(theta)], vel[:len(theta)]
	for i, g := range grad[:len(theta)] {
		mi := beta1*mom[i] + c1*g
		vi := beta2*vel[i] + c2*g*g
		mom[i], vel[i] = mi, vi
		theta[i] -= lr * (mi / bc1) / (math.Sqrt(vi/bc2) + eps)
	}
}

// forward4 is forward4Go over every row, with the AVX2 kernel taking the
// rows four at a time.
func forward4(p, x4, out4 []float64, relu bool) {
	n, out := len(x4)/4, len(out4)/4
	p, x4, out4 = p[:(n+1)*out], x4[:4*n], out4[:4*out]
	blocks := out &^ 3
	if blocks > 0 {
		forward4AVX2(p, x4, out4, relu)
	}
	forward4Go(p, x4, out4, relu, blocks)
}

// forward8 is forward for eight samples interleaved, unit i of sample s at
// x8[8i+s] and output o at out8[8o+s], all of it in the AVX-512 kernel.
func forward8(p, x8, out8 []float64, relu bool) {
	n, out := len(x8)/8, len(out8)/8
	forward8AVX512(p[:(n+1)*out], x8[:8*n], out8[:8*out], relu)
}

// backwardLayer is backprop's step through one layer: backward, and, when
// prev is not nil, prev set to the deltas of the layer below — backward
// onto a zeroed prev, then prev[i] = 0 wherever x[i] <= 0, x being that
// layer's ReLU output. The AVX-512 kernel does all of it; on the AVX2 path
// its kernel takes the columns four at a time and Go the rest.
func backwardLayer(p, g, x, d, prev []float64) {
	n := len(x)
	size := (n + 1) * len(d)
	p, g = p[:size], g[:size]
	if prev != nil {
		prev = prev[:n]
	}
	if simd == avx512Kernels {
		backwardAVX512(p, g, x, d, prev)
		return
	}
	clear(prev)
	if simd == avx2Kernels && n >= 4 {
		backwardAVX2(p, g, x, d, prev)
		backwardTail(p, g, x, d, prev, n&^3)
	} else {
		backward(p, g, x, d, prev)
	}
	if prev != nil {
		for i, a := range x {
			if a <= 0 {
				prev[i] = 0
			}
		}
	}
}

// backwardTail is backward over the columns from `from` on, row by row.
func backwardTail(p, g, x, d, prev []float64, from int) {
	n := len(x)
	if from == n {
		return
	}
	for o, do := range d {
		if do == 0 {
			continue
		}
		for i := from; i < n; i++ {
			g[o*n+i] += do * x[i]
			if prev != nil {
				prev[i] += do * p[o*n+i]
			}
		}
	}
}

// adamVec is adam, with the AVX2 kernel taking the cells four at a time
// and Go the rest. The AVX-512 path runs it too: Adam is divider-bound,
// so eight lanes do not make it faster.
func adamVec(theta, mom, vel, grad []float64, k *adamConsts) {
	mom, vel, grad = mom[:len(theta)], vel[:len(theta)], grad[:len(theta)]
	done := 0
	if simd != goKernels {
		adamAVX2(theta, mom, vel, grad, k)
		done = len(theta) &^ 3
	}
	adam(theta[done:], mom[done:], vel[done:], grad[done:], k)
}
