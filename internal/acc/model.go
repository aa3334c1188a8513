package acc

import (
	"fmt"
	"math/rand"
	"os"

	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/snap/codec"
)

// SaveModel writes net, trained by recipe, to path as one snap/codec
// image (modelState) of a weights-only clone, so the file does not depend
// on the optimizer state net still holds.
func SaveModel(path string, recipe OfflineConfig, net *rl.MLP) error {
	w := codec.NewWriter()
	modelState(codec.Save(w), &recipe, net.Clone())
	return os.WriteFile(path, w.Finish(), 0o644)
}

// modelState visits a model image: the "accmodel" tag, the recipe's scalar
// fields, then the network's State.
func modelState(v *codec.Visitor, recipe *OfflineConfig, net *rl.MLP) {
	v.Tag("accmodel")
	recipe.state(v)
	net.State(v)
}

// state visits the recipe's scalar fields, the part of it a model file
// records.
func (c *OfflineConfig) state(v *codec.Visitor) {
	v.Int(&c.Episodes)
	codec.Int64(v, &c.EpisodeTime)
	v.I64(&c.Seed)
	v.F64((*float64)(&c.HostBW))
	v.Int(&c.MaxSenders)
	v.Int(&c.MaxFlowsPerSender)
}

// LoadModel reads a model file SaveModel wrote, for a deployment whose
// agents have shape's StateDim, Hidden and NumActions. A file that is not
// a model image, is corrupt, or holds a network of another shape is one
// error. The recipe comes back with Tuner and Progress zero.
func LoadModel(path string, shape rl.AgentConfig) (*rl.MLP, OfflineConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, OfflineConfig{}, err
	}
	net, recipe, err := decodeModel(data, shape)
	if err != nil {
		return nil, OfflineConfig{}, fmt.Errorf("acc: model %s: %w", path, err)
	}
	return net, recipe, nil
}

func decodeModel(data []byte, shape rl.AgentConfig) (*rl.MLP, OfflineConfig, error) {
	var recipe OfflineConfig
	r, err := codec.NewReader(data)
	if err != nil {
		return nil, recipe, err
	}
	// The image overwrites every weight; the initial draw only sizes the net.
	net := rl.NewMLP(shape.Sizes(), rand.New(rand.NewSource(1)))
	if modelState(codec.Load(r), &recipe, net); r.Err() == nil && r.Remaining() != 0 {
		r.Fail("%d bytes after the network", r.Remaining())
	}
	return net, recipe, r.Err()
}
