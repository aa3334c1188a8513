package acc

import (
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

// BenchmarkPretrainEpisode times §4.3 offline pretraining per episode: one
// TrainOffline of b.N episodes at the episode length exp.PretrainedModel
// uses, the agent and its replay memory carried across them. Past the
// first episode nearly every tuner tick pays an rl.Agent.TrainStep, so
// this is where internal/rl's kernels meet the packet engine.
func BenchmarkPretrainEpisode(b *testing.B) {
	cfg := DefaultOfflineConfig()
	cfg.Episodes = b.N
	cfg.EpisodeTime = 10 * simtime.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	TrainOffline(cfg)
}
