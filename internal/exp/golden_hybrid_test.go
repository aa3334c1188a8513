package exp

import (
	"strconv"
	"testing"

	"github.com/accnet/acc/internal/obs"
)

// fig8Shares runs fig8 with the given options and returns the throughput
// ratio table (shares in [0,1]) plus the manifest.
func fig8Shares(t *testing.T, o Options) (*Table, obs.Manifest) {
	t.Helper()
	run := obs.NewRun(0)
	o.Obs = run
	tables, err := Run("fig8", o)
	if err != nil {
		t.Fatal(err)
	}
	return tables[0], run.Manifest()
}

// TestHybridFig8Tolerance is the user-facing equivalence contract of the
// hybrid fast path: fig8 under -fidelity hybrid must reproduce the packet
// engine's class shares within one percentage point. The sustained incast
// demotes every shared link almost immediately, so virtually the whole run
// executes at packet fidelity — the tolerance absorbs the different event
// interleaving at flow-start instants, not any modeling error.
func TestHybridFig8Tolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := DefaultOptions()
	o.Scale = 0.25
	o.OfflineEpisodes = 4
	pkt, _ := fig8Shares(t, o)

	o.Fidelity = "hybrid"
	hyb, man := fig8Shares(t, o)

	if len(hyb.Rows) != len(pkt.Rows) {
		t.Fatalf("row count diverged: hybrid %d, packet %d", len(hyb.Rows), len(pkt.Rows))
	}
	const tol = 0.01 // one percentage point of link share
	for i, pr := range pkt.Rows {
		hr := hyb.Rows[i]
		if pr[0] != hr[0] || pr[1] != hr[1] {
			t.Fatalf("row %d keys diverged: %v vs %v", i, pr[:2], hr[:2])
		}
		for c := 2; c < 4; c++ {
			pv, err1 := strconv.ParseFloat(pr[c], 64)
			hv, err2 := strconv.ParseFloat(hr[c], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("row %d col %d not numeric: %q %q", i, c, pr[c], hr[c])
			}
			if d := hv - pv; d > tol || d < -tol {
				t.Errorf("%s/%s %s: hybrid share %.4f vs packet %.4f (|Δ| > %.2f)",
					pr[0], pr[1], pkt.Cols[c], hv, pv, tol)
			}
		}
	}

	if man.Fidelity == nil {
		t.Fatal("hybrid run did not report a fidelity summary in the manifest")
	}
	f := man.Fidelity
	if f.FlowsStarted == 0 || f.PacketFlows == 0 || f.Demotions == 0 {
		t.Fatalf("implausible fidelity summary for a congested run: %+v", f)
	}
	if man.Config["fidelity"] != "hybrid" {
		t.Fatalf("manifest config missing fidelity knob: %v", man.Config)
	}
}
