//go:build !amd64

package rl

// bestPath is the Go kernels off amd64: they are the whole path, and the
// assembly entry points below are never called.
func bestPath() kernelPath { return goKernels }

const noSIMD = "rl: no SIMD kernels on this architecture"

func forward4AVX2(p, x4, out4 []float64, relu bool) { panic(noSIMD) }

func backwardAVX2(p, g, x, d, prev []float64) { panic(noSIMD) }

func adamAVX2(theta, mom, vel, grad []float64, k *adamConsts) { panic(noSIMD) }

func forward8AVX512(p, x8, out8 []float64, relu bool) { panic(noSIMD) }

func argmax8AVX512(q8 []float64, best []int) { panic(noSIMD) }

func split8AVX512(x8, xs []float64) { panic(noSIMD) }

func backwardAVX512(p, g, x, d, prev []float64) { panic(noSIMD) }
