package rl_test

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/snap/codec"
)

// tensors is a network in the row form MLP.State reads — the one
// decoder of snapshot images and model files alike.
type tensors struct {
	Sizes  []int
	W      [][][]float64
	B      [][]float64
	mW, vW [][][]float64
	mB, vB [][]float64
}

func wellFormed() *tensors {
	w := func() [][][]float64 { return [][][]float64{{{1, 1, 1}, {1, 1, 1}}, {{1, 1}}} }
	b := func() [][]float64 { return [][]float64{{0, 0}, {0}} }
	return &tensors{Sizes: []int{3, 2, 1}, W: w(), B: b(), mW: w(), vW: w(), mB: b(), vB: b()}
}

// image writes t in MLP.State's framing.
func (t *tensors) image() []byte {
	w := codec.NewWriter()
	w.Tag("mlp")
	w.Int(len(t.Sizes))
	for _, s := range t.Sizes {
		w.Int(s)
	}
	put2 := func(x [][]float64) {
		w.Int(len(x))
		for _, row := range x {
			w.F64s(row)
		}
	}
	put3 := func(x [][][]float64) {
		w.Int(len(x))
		for _, l := range x {
			put2(l)
		}
	}
	put3(t.W)
	put2(t.B)
	put3(t.mW)
	put3(t.vW)
	put2(t.mB)
	put2(t.vB)
	w.Int(7)
	return w.Finish()
}

// TestDecodersRejectWrongShape: a tensor that disagrees with the layer
// sizes — in any row, weights or moments — is one clean error, never a
// network that computes partial dot products, leaves a unit at 0, or
// panics on first use.
func TestDecodersRejectWrongShape(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(w [][][]float64, b [][]float64) ([][][]float64, [][]float64)
		sizes  []int // replaces Sizes when non-nil
		want   string
	}{
		{name: "short row", want: "layer 0 row 0 has 1 weights, want 3",
			mutate: func(w [][][]float64, b [][]float64) ([][][]float64, [][]float64) {
				w[0][0] = w[0][0][:1]
				return w, b
			}},
		{name: "long row", want: "layer 1 row 0 has 3 weights, want 2",
			mutate: func(w [][][]float64, b [][]float64) ([][][]float64, [][]float64) {
				w[1][0] = append(w[1][0], 1)
				return w, b
			}},
		{name: "missing row", want: "layer 0 has 1 weight rows, want 2",
			mutate: func(w [][][]float64, b [][]float64) ([][][]float64, [][]float64) {
				w[0] = w[0][:1]
				return w, b
			}},
		{name: "extra row", want: "layer 1 has 2 weight rows, want 1",
			mutate: func(w [][][]float64, b [][]float64) ([][][]float64, [][]float64) {
				w[1] = append(w[1], []float64{1, 1})
				return w, b
			}},
		{name: "short bias", want: "layer 0 has 1 biases, want 2",
			mutate: func(w [][][]float64, b [][]float64) ([][][]float64, [][]float64) {
				b[0] = b[0][:1]
				return w, b
			}},
		{name: "long bias", want: "layer 1 has 2 biases, want 1",
			mutate: func(w [][][]float64, b [][]float64) ([][][]float64, [][]float64) {
				b[1] = append(b[1], 0)
				return w, b
			}},
		{name: "missing layer", want: "tensor has 1 weight layers, want 2",
			mutate: func(w [][][]float64, b [][]float64) ([][][]float64, [][]float64) {
				return w[:1], b
			}},
		{name: "zero width", sizes: []int{3, 0, 1}, want: "layer size 0 at index 1"},
		{name: "negative width", sizes: []int{-3, 2, 1}, want: "layer size -3 at index 0"},
	}
	// The snapshot reader decodes into a network Build already made: here
	// one of wellFormed's shape, with weights the image must replace.
	built := func() *rl.MLP { return rl.NewMLP([]int{3, 2, 1}, rand.New(rand.NewSource(1))) }
	for _, tc := range cases {
		for _, moments := range []bool{false, true} {
			tn := wellFormed()
			if tc.sizes != nil {
				tn.Sizes = tc.sizes
			}
			if tc.mutate != nil && !moments {
				tn.W, tn.B = tc.mutate(tn.W, tn.B)
			} else if tc.mutate != nil {
				tn.vW, tn.vB = tc.mutate(tn.vW, tn.vB)
			}

			r, err := codec.NewReader(tn.image())
			if err != nil {
				t.Fatal(err)
			}
			built().State(codec.Load(r))
			if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Errorf("%s (moments=%v): restore err %v; want error containing %q", tc.name, moments, r.Err(), tc.want)
			}
		}
	}

	// The unmutated tensors load, so the rejections above are the
	// mutations' doing.
	tn := wellFormed()
	r, err := codec.NewReader(tn.image())
	if err != nil {
		t.Fatal(err)
	}
	restored := built()
	if restored.State(codec.Load(r)); r.Err() != nil {
		t.Fatalf("well-formed image rejected: %v", r.Err())
	}
	if got := restored.Forward([]float64{1, 2, 3})[0]; got != 12 {
		t.Fatalf("Forward through the loaded network = %v, want 12", got)
	}

	// A well-formed image of another shape is an error too: it must not
	// reshape the network it is overlaid on.
	other := rl.NewMLP([]int{3, 4, 1}, rand.New(rand.NewSource(1)))
	if r, _ = codec.NewReader(tn.image()); r == nil {
		t.Fatal("NewReader")
	}
	other.State(codec.Load(r))
	if want := "layer size 2 at index 1, want 4"; r.Err() == nil || !strings.Contains(r.Err().Error(), want) {
		t.Errorf("image of shape [3 2 1] onto [3 4 1]: err %v; want error containing %q", r.Err(), want)
	}
	if len(other.W[0]) != 4 {
		t.Errorf("a rejected image reshaped the network to %d hidden units", len(other.W[0]))
	}

	t.Run("replay header", replayRejectsWrongHeader)
}

// replayRejectsWrongHeader: the replay header is outside input behind a
// valid CRC. A capacity, length or ring position the constructed memory
// cannot have is one clean error before anything is sized from it — not a
// makeslice panic, not a silently resized memory — and leaves the memory
// as it was.
func replayRejectsWrongHeader(t *testing.T) {
	image := func(capacity, next int, full bool, n, stored int) []byte {
		w := codec.NewWriter()
		w.Tag("replay")
		w.Int(capacity)
		w.Int(next)
		w.Bool(full)
		w.Int(n)
		for i := 0; i < stored; i++ {
			w.F64s([]float64{1, 2})
			w.Int(0)
			w.F64(0.5)
			w.F64s([]float64{3, 4})
			w.Bool(false)
		}
		return w.Finish()
	}
	for _, tc := range []struct {
		name     string
		capacity int // of the memory the image is overlaid on
		img      []byte
		want     string
	}{
		{"huge capacity", 8, image(1<<50, 0, false, 3, 3), "replay capacity 1125899906842624, memory was built with 8"},
		{"other capacity", 8, image(16, 0, false, 3, 3), "replay capacity 16, memory was built with 8"},
		{"length over capacity", 8, image(8, 0, false, 9, 9), "replay length 9 exceeds capacity 8"},
		{"negative length", 8, image(8, 0, false, -1, 0), "replay length -1 is negative"},
		{"length over stream", 1 << 40, image(1<<40, 0, false, 1<<39, 3), "replay length 549755813888 exceeds the"},
		{"ring position out of range", 8, image(8, 8, true, 8, 8), "replay ring at 8"},
		{"ring moved before full", 8, image(8, 2, false, 3, 3), "replay ring at 2"},
		{"truncated", 8, image(8, 0, false, 3, 2), "truncated"},
	} {
		rp := rl.NewReplay(tc.capacity)
		rp.Add(rl.Transition{Action: 7})
		r, err := codec.NewReader(tc.img)
		if err != nil {
			t.Fatal(err)
		}
		rp.State(codec.Load(r))
		if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
			t.Errorf("%s: err %v; want error containing %q", tc.name, r.Err(), tc.want)
		}
		if rp.Len() != 1 || rp.At(0).Action != 7 {
			t.Errorf("%s: a rejected image changed the memory (len %d)", tc.name, rp.Len())
		}
	}
	rp := rl.NewReplay(8)
	r, err := codec.NewReader(image(8, 0, false, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rp.State(codec.Load(r)); r.Err() != nil || rp.Len() != 3 {
		t.Fatalf("well-formed replay image: err %v, len %d", r.Err(), rp.Len())
	}
}
