// Command acctrain runs ACC's offline pre-training (§4.3) over the
// synthetic workload suite and saves the resulting model, ready to be
// installed on switches (accsim -model). Its defaults are
// acc.DefaultOfflineConfig(), the recipe of the model accsim deploys.
//
// Usage:
//
//	acctrain -o models/pretrained.accmodel -episodes 50
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/simtime"
)

func main() {
	cfg := acc.DefaultOfflineConfig()
	var (
		out      = flag.String("o", "acc.accmodel", "output model path")
		episodes = flag.Int("episodes", cfg.Episodes, "training episodes")
		epTime   = flag.Duration("episode-time", time.Duration(cfg.EpisodeTime), "virtual time per episode")
		seed     = flag.Int64("seed", cfg.Seed, "training seed")
		senders  = flag.Int("max-senders", cfg.MaxSenders, "max incast senders per episode")
		flows    = flag.Int("max-flows", cfg.MaxFlowsPerSender, "max flows per sender per episode")
		quiet    = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	cfg.Episodes = *episodes
	cfg.EpisodeTime = simtime.Duration(epTime.Nanoseconds())
	cfg.Seed = *seed
	cfg.MaxSenders = *senders
	cfg.MaxFlowsPerSender = *flows
	if !*quiet {
		cfg.Progress = func(ep int, eps float64) {
			fmt.Printf("\repisode %d/%d  epsilon=%.3f", ep+1, cfg.Episodes, eps)
		}
	}

	t0 := time.Now()
	agent := acc.TrainOffline(cfg)
	if !*quiet {
		fmt.Println()
	}

	if err := acc.SaveModel(*out, cfg, agent.Eval); err != nil {
		fmt.Fprintln(os.Stderr, "acctrain:", err)
		os.Exit(1)
	}
	fmt.Printf("trained %d episodes in %v; %d transitions in memory; weights %016x -> %s\n",
		cfg.Episodes, time.Since(t0).Round(time.Millisecond), agent.Memory.Len(), agent.Eval.Digest(), *out)
}
