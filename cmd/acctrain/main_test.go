//go:build !race

// Training the default model takes about a minute under the race detector;
// CI's "Pretrained model artifact" step runs this test without it.

package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/exp"
)

// TestDefaultFlagsWriteDeployedModel: acctrain with no flags but -o trains
// the recipe accsim deploys, so the file it writes loads to the weights of
// the compiled-in default model, bit for bit.
func TestDefaultFlagsWriteDeployedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the default model")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("the compiled-in model holds amd64 training's bits; arm64 fuses multiply-adds")
	}
	path := filepath.Join(t.TempDir(), "m.accmodel")
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"acctrain", "-q", "-o", path}
	main()
	m, recipe, err := acc.LoadModel(path, acc.DefaultConfig().AgentConfig())
	if err != nil {
		t.Fatal(err)
	}
	def := acc.DefaultOfflineConfig()
	if recipe.Episodes != def.Episodes || recipe.EpisodeTime != def.EpisodeTime || recipe.Seed != def.Seed {
		t.Errorf("file records %d episodes x %v, seed %d; default recipe is %d x %v, seed %d",
			recipe.Episodes, recipe.EpisodeTime, recipe.Seed, def.Episodes, def.EpisodeTime, def.Seed)
	}
	want := exp.PretrainedModel(0).Params()
	for i, p := range m.Params() {
		if math.Float64bits(p) != math.Float64bits(want[i]) {
			t.Fatalf("parameter %d: file %016x, compiled-in %016x", i, math.Float64bits(p), math.Float64bits(want[i]))
		}
	}
}
