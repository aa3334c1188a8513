package exp

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/workload"
)

// runMix runs one mix-* experiment and returns its rendered tables.
func runMix(t *testing.T, id string, o Options) []*Table {
	t.Helper()
	tables, err := Run(id, o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tables
}

// TestMixReplayBitIdentical is the record→replay differential: for every
// engine configuration (sequential/sharded x packet/hybrid), running the
// default spec, re-recording it as executed, and replaying the recording
// must reproduce the identical run digest. mix-replay panics internally on
// divergence; this test additionally pins that the rendered tables (which
// embed both digests) are byte-identical across shard counts at packet
// fidelity — the engine-equivalence contract extended to spec traffic.
func TestMixReplayBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := DefaultOptions()
	var packet []string
	for _, cfg := range []struct {
		shards   int
		fidelity string
	}{
		{0, ""}, {4, ""}, {0, "hybrid"}, {4, "hybrid"},
	} {
		oc := o
		oc.Shards = cfg.shards
		oc.Fidelity = cfg.fidelity
		tables := runMix(t, "mix-replay", oc)
		out := renderTables(tables)
		if !strings.Contains(out, "identical") {
			t.Fatalf("shards=%d fidelity=%q: missing identity row:\n%s", cfg.shards, cfg.fidelity, out)
		}
		if cfg.fidelity == "" {
			packet = append(packet, out)
		}
	}
	if packet[0] != packet[1] {
		t.Errorf("packet-fidelity mix-replay differs between 1 and 4 shards:\n--- 1 ---\n%s\n--- 4 ---\n%s",
			packet[0], packet[1])
	}
}

// TestMixSpecRecordReplayRoundTrip records a run's trace to disk, replays
// the file in a fresh run, and requires byte-identical tables — the exact
// workflow CI's workload-smoke job drives through accsim.
func TestMixSpecRecordReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	for _, ext := range []string{"bin", "jsonl"} {
		path := filepath.Join(t.TempDir(), "mix."+ext)
		ro := DefaultOptions()
		ro.Shards = 4
		ro.RecordTrace = path
		recorded := renderTables(runMix(t, "mix-spec", ro))

		po := DefaultOptions()
		po.Shards = 4
		po.ReplayTrace = path
		replayed := renderTables(runMix(t, "mix-spec", po))
		if recorded != replayed {
			t.Errorf("%s: record and replay runs differ:\n--- record ---\n%s\n--- replay ---\n%s",
				ext, recorded, replayed)
		}
		// The file itself must round-trip into the identical trace.
		tr, err := workload.ReadTraceFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: recorded trace invalid: %v", ext, err)
		}
	}
}

// TestMixSpecDeterminismAcrossGOMAXPROCS pins that the spec-driven run —
// class-parallel generation, sharded execution, per-class summarization —
// renders byte-identical tables whether the shard workers are serialized or
// fully parallel.
func TestMixSpecDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := DefaultOptions()
	o.Shards = 4
	run := func() string { return renderTables(runMix(t, "mix-spec", o)) }
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(prev)
	parallel := run()
	if serial != parallel {
		t.Errorf("GOMAXPROCS=1 vs %d mix-spec runs differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			prev, serial, parallel)
	}
}

// TestMixSpecClassReporting checks the acceptance shape: a >=3-class spec
// reports per-SLO-class FCT percentiles and a Jain fairness index, both in
// the tables and in the obs manifest.
func TestMixSpecClassReporting(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := DefaultOptions()
	run := obs.NewRun(0)
	o.Obs = run
	tables := runMix(t, "mix-spec", o)
	if len(tables) != 2 {
		t.Fatalf("mix-spec produced %d tables, want 2", len(tables))
	}
	classTable := tables[0]
	// 3 classes + the aggregate Jain row.
	if len(classTable.Rows) != 4 {
		t.Fatalf("class table has %d rows, want 4:\n%s", len(classTable.Rows), classTable)
	}
	for _, col := range []string{"class", "slo", "fct_p50", "fct_p99", "mean_gbps"} {
		found := false
		for _, c := range classTable.Cols {
			if c == col {
				found = true
			}
		}
		if !found {
			t.Fatalf("class table missing column %q", col)
		}
	}

	m := run.Manifest()
	if m.Workload == nil {
		t.Fatal("manifest has no workload section")
	}
	if len(m.Workload.Classes) != 3 {
		t.Fatalf("manifest reports %d classes, want 3", len(m.Workload.Classes))
	}
	if m.Workload.Jain <= 0 || m.Workload.Jain > 1 {
		t.Fatalf("manifest Jain index %v outside (0,1]", m.Workload.Jain)
	}
	for _, c := range m.Workload.Classes {
		if c.Flows == 0 || c.FCTp99Ns < c.FCTp50Ns || c.SLO == "" {
			t.Fatalf("malformed class manifest: %+v", c)
		}
	}
	if sn := m.TraceByKind["flow_start"]; sn == 0 {
		t.Fatal("no flow_start records reached the obs trace")
	}
}

// TestMixSpecHybridManifest: a hybrid-fidelity run reports its mode
// accounting (obs.Run.AddFidelity) and its fidelity knob in the manifest.
// The default mix congests its fabric, so flows start, demote and run at
// packet level.
func TestMixSpecHybridManifest(t *testing.T) {
	o := DefaultOptions()
	o.Fidelity = "hybrid"
	run := obs.NewRun(0)
	o.Obs = run
	runMix(t, "mix-spec", o)

	man := run.Manifest()
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

// TestMixCollective smoke-runs the AI-fabric collectives mix and checks
// every collective makes progress while the live recorder captures a
// valid, replayable trace.
func TestMixCollective(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	path := filepath.Join(t.TempDir(), "coll.bin")
	o := DefaultOptions()
	o.RecordTrace = path
	tables := runMix(t, "mix-collective", o)
	if len(tables) != 2 {
		t.Fatalf("mix-collective produced %d tables, want 2", len(tables))
	}
	rates := tables[1]
	if len(rates.Rows) != 3 {
		t.Fatalf("collective table has %d rows, want 3", len(rates.Rows))
	}
	for _, row := range rates.Rows {
		if row[1] == "0" {
			t.Errorf("collective %s completed no rounds", row[0])
		}
	}
	tr, err := workload.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("live-recorded trace invalid: %v", err)
	}
	if len(tr.Flows) == 0 || len(tr.Classes) < 3 {
		t.Fatalf("live trace underpopulated: %d flows, %d classes", len(tr.Flows), len(tr.Classes))
	}
	// The live-recorded collective trace replays through mix-spec.
	ro := DefaultOptions()
	ro.ReplayTrace = path
	replay := runMix(t, "mix-spec", ro)
	if len(replay) != 2 {
		t.Fatal("replaying the collective trace produced no tables")
	}
}
