package rl

// useAVX2 selects the AVX2 kernels of kernels_amd64.s, once, from what the
// CPU and the operating system report.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU executes AVX and AVX2 and the operating
// system saves the YMM registers across context switches (XCR0 bits 1 and
// 2, read by XGETBV once CPUID has shown OSXSAVE).
func hasAVX2() bool {
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
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
