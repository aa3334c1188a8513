//go:build !race

// Together these runs take about four seconds on two CPUs (six of CPU
// time), several times that under the race detector, which already spends
// minutes on this package; CI's "Same bits at GOAMD64=v3" step
// (-run Golden) runs them.

package exp

import (
	"runtime"
	"testing"
)

// The runners on the shared harness (runArms, poisson.compare, deploy and
// renew in scenario.go and exp.go) that no paper-figs golden covers: fig1
// (renew), fig2, fig12, fig13, the six FCT ablations (ablation-hillclimb
// and hybrid also pin deploy's hill-climber and hybrid kinds), the
// link-failure stress test (compare's faults timeline), and the flap and
// telemetry robustness tables.
func init() {
	goldenIDs = append(goldenIDs,
		"fig1", "fig2", "fig12", "fig13",
		"ablation-history", "ablation-ddqn", "ablation-exchange",
		"ablation-busyidle", "ablation-period", "ablation-hillclimb",
		"hybrid", "stress-failure", "robust-flap", "robust-telemetry")
}

// TestGoldenArmsSerial: runArms runs a comparison's arms concurrently, the
// C-ACC, hybrid and hill-climber arms and fig8's shared topo.Config
// included, and TestGoldenTables pins what they print that way. With the
// arms serialized (GOMAXPROCS 1) the same tables must come out.
func TestGoldenArmsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, id := range []string{"fig1", "fig6", "fig8", "fig10", "fig14", "fig16", "hybrid", "ablation-hillclimb"} {
		checkGolden(t, id)
	}
}
