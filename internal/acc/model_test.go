package acc

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// modelImage is the model file SaveModel writes for a fresh network of
// shape's sizes.
func modelImage(shape rl.AgentConfig, seed int64) []byte {
	w := codec.NewWriter()
	recipe := DefaultOfflineConfig()
	modelState(codec.Save(w), &recipe, rl.NewMLP(shape.Sizes(), rand.New(rand.NewSource(seed))))
	return w.Finish()
}

func TestSaveLoadModel(t *testing.T) {
	net, fab := buildIncast(6, 4)
	tuner := NewTuner(net, fab.Leaves[0], nil, DefaultConfig())
	net.RunUntil(simtime.Time(2 * simtime.Millisecond))
	if tuner.Agent.TrainSteps() == 0 {
		t.Fatal("the tuner never trained; the model would carry no optimizer state")
	}

	recipe := DefaultOfflineConfig()
	recipe.Episodes, recipe.Seed = 3, 9
	path := filepath.Join(t.TempDir(), "m.accmodel")
	if err := SaveModel(path, recipe, tuner.Agent.Eval); err != nil {
		t.Fatal(err)
	}
	m, got, err := LoadModel(path, DefaultConfig().AgentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Digest() != tuner.Agent.Eval.Digest() {
		t.Fatalf("loaded weights digest %016x, saved %016x", m.Digest(), tuner.Agent.Eval.Digest())
	}
	if got.Episodes != recipe.Episodes || got.EpisodeTime != recipe.EpisodeTime || got.Seed != recipe.Seed ||
		got.HostBW != recipe.HostBW || got.MaxSenders != recipe.MaxSenders || got.MaxFlowsPerSender != recipe.MaxFlowsPerSender {
		t.Fatalf("loaded recipe %+v, saved %+v", got, recipe)
	}

	// The trained network's optimizer state stays out of the file: saving
	// its weights-only clone writes the same bytes.
	clone := filepath.Join(t.TempDir(), "clone.accmodel")
	if err := SaveModel(clone, recipe, tuner.Agent.Eval.Clone()); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(clone)
	if !bytes.Equal(a, b) {
		t.Fatal("a trained network and its weights-only clone saved different files")
	}
}

// TestLoadModelErrors: whatever is wrong with a model file is one error
// naming the file, before any network reaches a deployment.
func TestLoadModelErrors(t *testing.T) {
	shape := DefaultConfig().AgentConfig()
	valid := modelImage(shape, 1)
	dir := t.TempDir()
	if _, _, err := LoadModel(filepath.Join(dir, "missing.accmodel"), shape); err == nil {
		t.Fatal("expected error for missing file")
	}
	wide := shape
	wide.Hidden = []int{20, 40, 41}
	other := codec.NewWriter()
	other.Tag("agent")
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-1] ^= 1
	trailing := append(bytes.Clone(valid[:len(valid)-4]), 0)
	trailing = binary.LittleEndian.AppendUint32(trailing, crc32.ChecksumIEEE(trailing))
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"not an image", []byte("{}"), "truncated stream"},
		{"truncated", valid[:len(valid)/2], "checksum mismatch"},
		{"bad CRC", badCRC, "checksum mismatch"},
		{"another image", other.Finish(), `got "agent" want "accmodel"`},
		{"wrong shape", modelImage(wide, 1), "mlp layer size 41 at index 3, want 40"},
		{"trailing bytes", trailing, "1 bytes after the network"},
	} {
		p := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-"))
		if err := os.WriteFile(p, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadModel(p, shape)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), p) {
			t.Errorf("%s: err %v; want one naming %s and containing %q", tc.name, err, p, tc.want)
		}
	}
	p := filepath.Join(dir, "valid")
	if err := os.WriteFile(p, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadModel(p, shape); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
}

// FuzzLoadModel feeds the model decoder files SaveModel did not write: each
// input as it is, and again behind a recomputed checksum so the mutations
// reach the decoders. Every input must load a network of the asked shape
// or be one error: no panic, and no allocation beyond a small multiple of
// the input's length.
func FuzzLoadModel(f *testing.F) {
	shape := rl.DefaultAgentConfig(4, 3)
	shape.Hidden = []int{6}
	wrong := shape
	wrong.Hidden = []int{7}
	valid := modelImage(shape, 1)
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-1] ^= 1
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(badCRC)
	f.Add(modelImage(wrong, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		framed := data
		if len(data) >= 4 {
			framed = binary.LittleEndian.AppendUint32(bytes.Clone(data[:len(data)-4]), crc32.ChecksumIEEE(data[:len(data)-4]))
		}
		for _, in := range [][]byte{data, framed} {
			// decode reports what one decode allocated and how it ended.
			decode := func() (uint64, *rl.MLP, error) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				net, _, err := decodeModel(in, shape)
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc, net, err
			}
			// The fixed part is the network and its initial draw's generator;
			// decoded floats cost what they occupy in the input. TotalAlloc is
			// the whole process's, so an overrun gets two more chances.
			limit := uint64(16*len(in) + 16<<10)
			grew, net, err := decode()
			for try := 0; grew > limit && try < 2; try++ {
				if again, _, _ := decode(); again < grew {
					grew = again
				}
			}
			if grew > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(in), grew, limit)
			}
			if err == nil && !slices.Equal(net.Sizes, shape.Sizes()) {
				t.Fatalf("loaded a network of sizes %v, asked for %v", net.Sizes, shape.Sizes())
			}
		}
	})
}
