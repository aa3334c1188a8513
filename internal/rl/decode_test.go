package rl_test

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/snap/codec"
)

// tensors is a network in the row form both decoders read: the model JSON
// carries sizes/w/b, the snapshot image all of it.
type tensors struct {
	Sizes  []int         `json:"sizes"`
	W      [][][]float64 `json:"w"`
	B      [][]float64   `json:"b"`
	mW, vW [][][]float64
	mB, vB [][]float64
}

func wellFormed() *tensors {
	w := func() [][][]float64 { return [][][]float64{{{1, 1, 1}, {1, 1, 1}}, {{1, 1}}} }
	b := func() [][]float64 { return [][]float64{{0, 0}, {0}} }
	return &tensors{Sizes: []int{3, 2, 1}, W: w(), B: b(), mW: w(), vW: w(), mB: b(), vB: b()}
}

// image writes t in MLP.SaveState's framing.
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
// sizes — in any row, in either file format — is one clean error, never a
// network that computes partial dot products, leaves a unit at 0, or
// panics on first use.
func TestDecodersRejectWrongShape(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(w [][][]float64, b [][]float64) ([][][]float64, [][]float64)
		sizes  []int // replaces Sizes when non-nil
		want   string
		image  string // what the snapshot reader says instead, if it differs
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
		{name: "missing layer", want: "3 layer sizes with 1 weight and 2 bias layers",
			image: "tensor has 1 weight layers, want 2",
			mutate: func(w [][][]float64, b [][]float64) ([][][]float64, [][]float64) {
				return w[:1], b
			}},
		{name: "zero width", sizes: []int{3, 0, 1}, want: "layer size 0 at index 1"},
		{name: "negative width", sizes: []int{-3, 2, 1}, want: "layer size -3 at index 0"},
	}
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
			want := tc.want
			if tc.image != "" {
				want = tc.image
			}
			m := rl.RestoreMLP(r)
			if m != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), want) {
				t.Errorf("%s (moments=%v): RestoreMLP = %v, err %v; want error containing %q", tc.name, moments, m, r.Err(), want)
			}
			if moments {
				continue // the model file carries no optimizer state
			}
			data, err := json.Marshal(tn)
			if err != nil {
				t.Fatal(err)
			}
			var got rl.MLP
			if err := json.Unmarshal(data, &got); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: UnmarshalJSON err %v; want error containing %q", tc.name, err, tc.want)
			}
		}
	}

	// The unmutated tensors load through both, so the rejections above are
	// the mutations' doing.
	tn := wellFormed()
	r, err := codec.NewReader(tn.image())
	if err != nil {
		t.Fatal(err)
	}
	if m := rl.RestoreMLP(r); m == nil || r.Err() != nil {
		t.Fatalf("well-formed image rejected: %v", r.Err())
	}
	data, _ := json.Marshal(tn)
	var m rl.MLP
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("well-formed JSON rejected: %v", err)
	}
	if got := m.Forward([]float64{1, 2, 3})[0]; got != 12 {
		t.Fatalf("Forward through the loaded network = %v, want 12", got)
	}
}
