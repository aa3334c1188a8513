package acc

import (
	"fmt"
	"math/rand"
	"os"

	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// SaveModel writes net, trained by recipe, to path as one snap/codec
// image: the "accmodel" tag, the recipe's scalar fields, then
// MLP.SaveState of a weights-only clone, so the file does not depend on
// the optimizer state net still holds.
func SaveModel(path string, recipe OfflineConfig, net *rl.MLP) error {
	w := codec.NewWriter()
	saveModel(w, recipe, net.Clone())
	return os.WriteFile(path, w.Finish(), 0o644)
}

func saveModel(w *codec.Writer, recipe OfflineConfig, net *rl.MLP) {
	w.Tag("accmodel")
	w.Int(recipe.Episodes)
	w.I64(int64(recipe.EpisodeTime))
	w.I64(recipe.Seed)
	w.F64(float64(recipe.HostBW))
	w.Int(recipe.MaxSenders)
	w.Int(recipe.MaxFlowsPerSender)
	net.SaveState(w)
}

func loadModel(r *codec.Reader, recipe *OfflineConfig, net *rl.MLP) {
	r.Expect("accmodel")
	recipe.Episodes = r.Int()
	recipe.EpisodeTime = simtime.Duration(r.I64())
	recipe.Seed = r.I64()
	recipe.HostBW = simtime.Rate(r.F64())
	recipe.MaxSenders = r.Int()
	recipe.MaxFlowsPerSender = r.Int()
	net.RestoreState(r)
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
	if loadModel(r, &recipe, net); r.Err() == nil && r.Remaining() != 0 {
		r.Fail("%d bytes after the network", r.Remaining())
	}
	return net, recipe, r.Err()
}
