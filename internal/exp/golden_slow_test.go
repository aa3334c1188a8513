//go:build !race

// Together these runs add about seven seconds on two CPUs, several times
// that under the race detector, which already spends minutes on this
// package; CI's "Same bits at GOAMD64=v3" step (-run Golden) runs them.

package exp

// The runners built on the poisson scenario driver, deploy and renew
// (scenario.go, exp.go) that no paper-figs golden covers: fig1 (renew),
// fig2, fig12, fig13, the six FCT ablations (ablation-hillclimb and
// hybrid also pin deploy's hill-climber and hybrid kinds), the
// link-failure stress test, and the flap and telemetry robustness tables.
func init() {
	goldenIDs = append(goldenIDs,
		"fig1", "fig2", "fig12", "fig13",
		"ablation-history", "ablation-ddqn", "ablation-exchange",
		"ablation-busyidle", "ablation-period", "ablation-hillclimb",
		"hybrid", "stress-failure", "robust-flap", "robust-telemetry")
}
