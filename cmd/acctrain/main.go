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
	"path/filepath"
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

	// A value training would replace with its default, or an output
	// directory that does not exist, is a user error: say so in one line
	// before training rather than after it, or record a recipe that did not
	// run.
	for _, c := range []struct {
		flag   string
		bad    bool
		needed string
	}{
		{"-episodes", *episodes < 1, "at least 1"},
		{"-episode-time", *epTime <= 0, "positive"},
		{"-max-senders", *senders < 2, "at least 2"},
		{"-max-flows", *flows < 1, "at least 1"},
	} {
		if c.bad {
			fmt.Fprintf(os.Stderr, "acctrain: %s must be %s\n", c.flag, c.needed)
			os.Exit(2)
		}
	}
	if dir := filepath.Dir(*out); dir != "." {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			fmt.Fprintf(os.Stderr, "acctrain: -o: directory %s does not exist\n", dir)
			os.Exit(2)
		}
	}

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
