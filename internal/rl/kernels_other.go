//go:build !amd64

package rl

// useAVX2 is false off amd64: the Go kernels are the whole path, and the
// AVX2 entry points below are never called.
const useAVX2 = false

const noAVX2 = "rl: no AVX2 kernels on this architecture"

func forward4AVX2(p, x4, out4 []float64, relu bool) { panic(noAVX2) }

func backwardAVX2(p, g, x, d, prev []float64) { panic(noAVX2) }

func adamAVX2(theta, mom, vel, grad []float64, k *adamConsts) { panic(noAVX2) }
