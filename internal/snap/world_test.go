package snap

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/psim"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
)

// testScenario is a small congested fabric: enough flows per host pair to
// build queues (marks, PFC), a flapping leaf-spine link, and a mixed
// TCP/DCQCN population.
func testScenario(shards int, fidelity string) Scenario {
	return Scenario{
		NLeaf: 4, HostsPerLeaf: 3, NSpine: 2, Shards: shards,
		Seed:  7,
		Flows: 48, MaxBytes: 96 * simtime.KB, Spread: 150 * simtime.Microsecond, MixTCP: true,
		FaultLinks: 1, MTBF: 200 * simtime.Microsecond, MTTR: 40 * simtime.Microsecond, FaultSeed: 11,
		Horizon:  simtime.Time(600 * simtime.Microsecond),
		Fidelity: fidelity,
	}
}

// runCold builds and runs a scenario straight to its horizon.
func runCold(t *testing.T, sc Scenario) Summary {
	t.Helper()
	w, err := Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w.Run(sc.Horizon)
	return w.Summarize()
}

// TestRestoreContinuity is the tentpole proof obligation: run to a
// mid-run instant, snapshot, restore into a fresh world, run to the
// horizon — and get the bit-identical outcome surface of the
// uninterrupted run. Sequential and sharded, both fidelities, with and
// without ACC.
func TestRestoreContinuity(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"packet-seq", func(sc *Scenario) { sc.Shards = 1 }},
		{"packet-shards4", func(sc *Scenario) { sc.Shards = 4 }},
		{"hybrid-seq", func(sc *Scenario) { sc.Shards = 1; sc.Fidelity = "hybrid" }},
		{"hybrid-shards4", func(sc *Scenario) { sc.Shards = 4; sc.Fidelity = "hybrid" }},
		{"acc-shards4", func(sc *Scenario) {
			sc.Shards = 4
			sc.ACC = true
			sc.WRED = &red.Config{Kmin: 40 * simtime.KB, Kmax: 160 * simtime.KB, Pmax: 0.2}
		}},
		{"wred-packet-seq", func(sc *Scenario) {
			sc.Shards = 1
			sc.WRED = &red.Config{Kmin: 20 * simtime.KB, Kmax: 80 * simtime.KB, Pmax: 0.5}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := testScenario(1, "packet")
			tc.mut(&sc)
			cold := runCold(t, sc)
			if cold.FlowsCompleted == 0 {
				t.Fatalf("scenario completed no flows; test exercises nothing")
			}

			warm, err := Build(sc)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			mid := sc.Horizon / 2
			warm.Run(mid)
			img := warm.Snapshot()

			resumed, err := Restore(img)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if resumed.Now() != warm.Now() {
				t.Fatalf("restored clock %v, want %v", resumed.Now(), warm.Now())
			}
			resumed.Run(sc.Horizon)
			got := resumed.Summarize()
			if got != cold {
				t.Fatalf("restore≢continuous:\n cold   %+v\n resumed %+v", cold, got)
			}
		})
	}
}

// TestSnapshotIsRepeatable: snapshotting must not perturb the world — the
// snapshotted run continues to the same outcome as the cold run, and a
// second snapshot of a restored world equals a snapshot of the original
// at the same instant.
func TestSnapshotIsRepeatable(t *testing.T) {
	sc := testScenario(4, "hybrid")
	cold := runCold(t, sc)

	w, err := Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	mid := sc.Horizon / 2
	w.Run(mid)
	img := w.Snapshot()
	w.Run(sc.Horizon) // the snapshotted world keeps running
	if got := w.Summarize(); got != cold {
		t.Fatalf("snapshotting perturbed the run:\n cold %+v\n got  %+v", cold, got)
	}

	r1, err := Restore(img)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	img2 := r1.Snapshot()
	if string(img) != string(img2) {
		t.Fatalf("restore→snapshot is not byte-identical to the original snapshot (%d vs %d bytes)", len(img), len(img2))
	}
}

// TestForkMatchesColdRun: every branch forked from a warm snapshot must be
// bit-identical to a cold run that applied the same variant at the same
// instant — the property that lets sweeps share one warmup.
func TestForkMatchesColdRun(t *testing.T) {
	for _, fidelity := range []string{"packet", "hybrid"} {
		t.Run(fidelity, func(t *testing.T) {
			sc := testScenario(4, fidelity)
			branch := sc.Horizon / 2
			variants := []Variant{
				{Name: "wred-shallow", WRED: &red.Config{Kmin: 10 * simtime.KB, Kmax: 40 * simtime.KB, Pmax: 0.8}},
				{Name: "fault-burst", Faults: []psim.FaultEvent{
					{At: branch.Add(20 * simtime.Microsecond), Link: psim.LeafSpineLink(1, 1), Down: true},
					{At: branch.Add(120 * simtime.Microsecond), Link: psim.LeafSpineLink(1, 1), Down: false},
				}},
				{Name: "baseline"},
			}

			warm, err := Build(sc)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			warm.Run(branch)
			img := warm.Snapshot()

			for _, v := range variants {
				forked, err := Fork(img, v)
				if err != nil {
					t.Fatalf("Fork(%s): %v", v.Name, err)
				}
				forked.Run(sc.Horizon)
				got := forked.Summarize()

				coldW, err := Build(sc)
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				coldW.Run(branch)
				if err := coldW.ApplyVariant(v); err != nil {
					t.Fatalf("ApplyVariant(%s): %v", v.Name, err)
				}
				coldW.Run(sc.Horizon)
				want := coldW.Summarize()

				if got != want {
					t.Fatalf("fork≢cold for %s:\n cold %+v\n fork %+v", v.Name, want, got)
				}
			}
		})
	}
}

// completedParked counts NIC waiter slots held by TCP senders that are
// already fully acked.
func completedParked(w *World) int {
	n := 0
	for _, row := range w.E.Hosts {
		for _, h := range row {
			for _, q := range h.Port.Queues {
				for _, ref := range q.Parked() {
					if ref.Kind != netsim.WaiterTCP {
						continue
					}
					if f := w.App.TCPSend[int(ref.Flow)-1]; f != nil && f.Acked() {
						n++
					}
				}
			}
		}
	}
	return n
}

// TestForkWithCompletedParkedSender: a TCP sender re-parks on every ACK that
// finds its NIC queue full, so slots of its can still be queued when the
// last ACK completes it. The snapshot saves no transport for a completed
// sender; restore must keep those slots anyway (they gate CanInject for
// newcomers), and a re-save must reproduce the image. Fork used to fail
// here with "no waiter for kind 2".
func TestForkWithCompletedParkedSender(t *testing.T) {
	sc := Scenario{
		NLeaf: 4, HostsPerLeaf: 8, NSpine: 2, Shards: 1, Seed: 2,
		Flows: 400, MaxBytes: 256 * simtime.KB, Spread: 500 * simtime.Microsecond, MixTCP: true,
		ACC: true, Fidelity: "packet", Horizon: simtime.Time(simtime.Millisecond),
	}
	branch := simtime.Time(700 * simtime.Microsecond)
	warm, err := Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	warm.Run(branch)
	if completedParked(warm) == 0 {
		t.Fatalf("no completed sender is parked at %v; the scenario exercises nothing", branch)
	}
	img := warm.Snapshot()

	restored, err := Restore(img)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if img2 := restored.Snapshot(); string(img) != string(img2) {
		t.Fatalf("restore→snapshot is not byte-identical to the original snapshot (%d vs %d bytes)", len(img), len(img2))
	}

	for _, v := range []Variant{
		{Name: "baseline"},
		{Name: "wred-shallow", WRED: &red.Config{Kmin: 10 * simtime.KB, Kmax: 40 * simtime.KB, Pmax: 0.8}},
	} {
		forked, err := Fork(img, v)
		if err != nil {
			t.Fatalf("Fork(%s): %v", v.Name, err)
		}
		forked.Run(sc.Horizon)

		cold, err := Build(sc)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		cold.Run(branch)
		if err := cold.ApplyVariant(v); err != nil {
			t.Fatalf("ApplyVariant(%s): %v", v.Name, err)
		}
		cold.Run(sc.Horizon)
		if got, want := forked.Summarize(), cold.Summarize(); got != want {
			t.Fatalf("fork≢cold for %s:\n cold %+v\n fork %+v", v.Name, want, got)
		}
	}
}

// TestKillResumeFile: the crash-resume path — snapshot to a file, rebuild
// from the file alone (the scenario rides inside), and reach the cold
// run's outcome.
func TestKillResumeFile(t *testing.T) {
	sc := testScenario(4, "hybrid")
	sc.ACC = true
	cold := runCold(t, sc)

	w, err := Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w.Run(sc.Horizon / 2)
	path := filepath.Join(t.TempDir(), "world.accsnap")
	if err := WriteFile(path, w.Snapshot()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	data, got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got != sc {
		t.Fatalf("embedded scenario %+v differs from %+v", got, sc)
	}
	resumed, err := Restore(data)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	resumed.Run(sc.Horizon)
	if got := resumed.Summarize(); got != cold {
		t.Fatalf("kill-resume≢continuous:\n cold    %+v\n resumed %+v", cold, got)
	}
}

// TestRestoreRejectsCorruption: flipped bytes and truncation must fail
// loudly, never restore a half-world.
func TestRestoreRejectsCorruption(t *testing.T) {
	sc := testScenario(1, "packet")
	w, err := Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w.Run(sc.Horizon / 2)
	img := w.Snapshot()

	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Restore(flipped); err == nil {
		t.Fatalf("Restore accepted a corrupted stream")
	}
	if _, err := Restore(img[:len(img)-6]); err == nil {
		t.Fatalf("Restore accepted a truncated stream")
	}
	if _, err := Peek([]byte("not a snapshot")); err == nil {
		t.Fatalf("Peek accepted garbage")
	}
}

// TestVariantValidation: rewinding faults, out-of-range links and brownout
// scales no bandwidth can take are configuration errors, not silent
// schedule corruption, and a refused variant schedules none of its faults.
func TestVariantValidation(t *testing.T) {
	sc := testScenario(1, "packet")
	w, err := Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w.Run(simtime.Time(100 * simtime.Microsecond))
	pending := w.E.Shards[0].Net.Q.Pending()
	past := Variant{Faults: []psim.FaultEvent{{At: simtime.Time(10 * simtime.Microsecond), Link: psim.LeafSpineLink(0, 0), Down: true}}}
	if err := w.ApplyVariant(past); err == nil {
		t.Fatalf("ApplyVariant accepted a fault before the branch instant")
	}
	oob := Variant{Faults: []psim.FaultEvent{{At: simtime.Time(200 * simtime.Microsecond), Link: psim.LeafSpineLink(99, 0), Down: true}}}
	if err := w.ApplyVariant(oob); err == nil {
		t.Fatalf("ApplyVariant accepted an out-of-range link")
	}
	at := simtime.Time(200 * simtime.Microsecond)
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.5} {
		err := w.ApplyVariant(Variant{Faults: []psim.FaultEvent{{At: at, Link: psim.LeafSpineLink(0, 0), Down: true},
			{At: at, Link: psim.LeafSpineLink(0, 1), Brownout: true, Scale: scale}}})
		if err == nil || !strings.Contains(err.Error(), "positive finite") {
			t.Fatalf("ApplyVariant with brownout scale %v: error %v, want the bandwidth-scale refusal", scale, err)
		}
	}
	if n := w.E.Shards[0].Net.Q.Pending(); n != pending {
		t.Fatalf("refused variants scheduled %d events", n-pending)
	}
	bad := Variant{WRED: &red.Config{Kmin: 100, Kmax: 50, Pmax: 0.5}}
	if err := w.ApplyVariant(bad); err == nil {
		t.Fatalf("ApplyVariant accepted an invalid WRED template")
	}
}

// TestScenarioValidation exercises Build's input rejection.
func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{NLeaf: 1, HostsPerLeaf: 1, NSpine: 1, Horizon: 1},
		{NLeaf: 2, HostsPerLeaf: 1, NSpine: 1},
		{NLeaf: 2, HostsPerLeaf: 1, NSpine: 1, Horizon: 1, Fidelity: "fluid"},
		{NLeaf: 2, HostsPerLeaf: 1, NSpine: 1, Horizon: 1, FaultLinks: 1},
		{NLeaf: 2, HostsPerLeaf: 1, NSpine: 1, Horizon: 1, Spread: -1},
		{NLeaf: 2, HostsPerLeaf: 1, NSpine: 1, Horizon: 1, Spread: 2},
		{NLeaf: 2, HostsPerLeaf: 1, NSpine: 1, Horizon: 1, Flows: -1},
		{NLeaf: 2, HostsPerLeaf: 1, NSpine: 1, Horizon: 1, WRED: &red.Config{Kmin: 2, Kmax: 1, Pmax: 0.1}},
	}
	for i, sc := range bad {
		if _, err := Build(sc); err == nil {
			t.Errorf("case %d: Build accepted invalid scenario %+v", i, sc)
		}
	}
	if _, err := os.Stat("/nonexistent-snap-dir/x.accsnap"); err == nil {
		t.Skip("unexpected path exists")
	}
	if _, _, err := ReadFile("/nonexistent-snap-dir/x.accsnap"); err == nil {
		t.Errorf("ReadFile accepted a missing path")
	}
}
