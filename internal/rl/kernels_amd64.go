package rl

// bestPath picks the widest kernel set of kernels_amd64.s that the CPU
// executes and the operating system saves the registers of.
//
// AVX2: CPUID leaf 1 ECX shows OSXSAVE and AVX, XCR0 bits 1 and 2 (SSE and
// AVX state) are set, and leaf 7 EBX bit 5 shows AVX2. AVX-512F adds leaf
// 7 EBX bit 16 and XCR0 bits 5, 6 and 7 (the mask registers and the upper
// halves of ZMM0–15 and ZMM16–31): mask 0xE6 in all. Its backward kernel
// also counts mask bits with POPCNT, leaf 1 ECX bit 23, which every
// AVX-512 CPU has.
func bestPath() kernelPath {
	const osxsave, avx, popcnt, avx2, avx512f = 1 << 27, 1 << 28, 1 << 23, 1 << 5, 1 << 16
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return goKernels
	}
	_, _, c, _ := cpuid(1, 0)
	if c&(osxsave|avx) != osxsave|avx {
		return goKernels
	}
	xcr0 := xgetbv()
	_, b, _, _ := cpuid(7, 0)
	switch {
	case xcr0&6 != 6 || b&avx2 == 0:
		return goKernels
	case xcr0&0xE6 == 0xE6 && b&avx512f != 0 && c&popcnt != 0:
		return avx512Kernels
	}
	return avx2Kernels
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// forward4AVX2 is forward4Go over the output rows below len(out4)/4 &^ 3.
//
//go:noescape
func forward4AVX2(p, x4, out4 []float64, relu bool)

// backwardAVX2 is backward over the columns below len(x) &^ 3, plus every
// bias cell. An empty prev stands for nil.
//
//go:noescape
func backwardAVX2(p, g, x, d, prev []float64)

// adamAVX2 is adam over the cells below len(theta) &^ 3.
//
//go:noescape
func adamAVX2(theta, mom, vel, grad []float64, k *adamConsts)

// forward8AVX512 is forward over every output row for eight samples
// interleaved, unit i of sample s at x8[8i+s] and output o at out8[8o+s].
//
//go:noescape
func forward8AVX512(p, x8, out8 []float64, relu bool)

// argmax8AVX512 sets best[s] to Argmax over sample s's outputs, for eight
// samples interleaved, output o of sample s at q8[8o+s].
//
//go:noescape
func argmax8AVX512(q8 []float64, best []int)

// split8AVX512 sets xs[s·n+i] = x8[8i+s], n = len(xs)/8: eight
// interleaved samples regrouped by sample. len(x8) is 8n rounded up to a
// multiple of 64.
//
//go:noescape
func split8AVX512(x8, xs []float64)

// backwardAVX512 is backwardLayer over every column: backward onto a
// zeroed prev, then prev[i] = 0 wherever x[i] <= 0. An empty prev stands
// for nil.
//
//go:noescape
func backwardAVX512(p, g, x, d, prev []float64)
