package exp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/rl"
)

// defaultModelDigest is rl.MLP.Digest of acc.DefaultOfflineConfig()'s
// model, as recorded before internal/rl's kernels were row-blocked.
const defaultModelDigest = "e3fd38e35a64bf60"

// TestPretrainedModelReadsTable: the default model is the compiled-in
// table, not a training run, and has the default recipe's weights.
func TestPretrainedModelReadsTable(t *testing.T) {
	if !sameRecipe(acc.DefaultOfflineConfig(), pretrainedRecipe()) {
		t.Fatalf("acc.DefaultOfflineConfig() is not the recipe pretrained_weights.go was generated from; regenerate with -update-golden")
	}
	m := PretrainedModel(0)
	if got := fmt.Sprintf("%016x", m.Digest()); got != defaultModelDigest {
		t.Fatalf("PretrainedModel(0) weights digest %s, want %s", got, defaultModelDigest)
	}
	if !slices.Equal(m.Sizes, pretrainedSizes[:]) {
		t.Fatalf("PretrainedModel(0) sizes %v, table %v", m.Sizes, pretrainedSizes)
	}
	for i, p := range m.Params() {
		if math.Float64bits(p) != pretrainedBits[i] {
			t.Fatalf("parameter %d is %016x, table %016x", i, math.Float64bits(p), pretrainedBits[i])
		}
	}
}

// TestSameRecipe: the table key is every field of the recipe but Progress,
// the reward function by identity.
func TestSameRecipe(t *testing.T) {
	def := acc.DefaultOfflineConfig()
	for _, tc := range []struct {
		name string
		edit func(*acc.OfflineConfig)
		same bool
	}{
		{"progress", func(c *acc.OfflineConfig) { c.Progress = func(int, float64) {} }, true},
		{"episodes", func(c *acc.OfflineConfig) { c.Episodes = 4 }, false},
		{"host bandwidth", func(c *acc.OfflineConfig) { c.HostBW /= 2 }, false},
		{"reward", func(c *acc.OfflineConfig) { c.Tuner.Reward = acc.LinearReward }, false},
		{"template", func(c *acc.OfflineConfig) { c.Tuner.Template = c.Tuner.Template[1:] }, false},
		{"hidden", func(c *acc.OfflineConfig) { c.Tuner.Agent.Hidden = []int{20} }, false},
	} {
		c := acc.DefaultOfflineConfig()
		tc.edit(&c)
		if got := sameRecipe(c, def); got != tc.same {
			t.Errorf("%s: sameRecipe = %v, want %v", tc.name, got, tc.same)
		}
	}
}

// TestOptionsModel: Options.Model reaches the ACC arms in place of the
// pretrained model, and the manifest records which model ran.
func TestOptionsModel(t *testing.T) {
	loaded := rl.NewMLP(pretrainedSizes[:], rand.New(rand.NewSource(5)))
	o := DefaultOptions()
	o.Model, o.ModelFile, o.Obs = loaded, "m.accmodel", obs.NewRun(16)
	if o.model() != loaded {
		t.Fatal("Options.Model was not the deployed model")
	}
	if m := o.Obs.Manifest(); m.Model != "m.accmodel" || m.ModelDigest != fmt.Sprintf("%016x", loaded.Digest()) {
		t.Errorf("manifest records model %q digest %q", m.Model, m.ModelDigest)
	}
	o.Model, o.ModelFile = nil, ""
	if o.model() != PretrainedModel(0) {
		t.Fatal("without Options.Model the pretrained model was not deployed")
	}
	if m := o.Obs.Manifest(); m.Model != "pretrained" || m.ModelDigest != defaultModelDigest {
		t.Errorf("manifest records model %q digest %q", m.Model, m.ModelDigest)
	}
}
