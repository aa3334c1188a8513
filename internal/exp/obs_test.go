package exp

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/accnet/acc/internal/obs"
)

// TestObsFig8Smoke runs a miniature fig8 with observability attached and
// checks the full artifact chain: the manifest is finished and carries
// engine totals, the trace holds at least one record of every hooked event
// type, the JSONL dump validates line by line, and the metrics snapshot is
// accepted by a scrape-format parser.
func TestObsFig8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := DefaultOptions()
	o.Scale = 0.25
	o.OfflineEpisodes = 4
	o.Obs = obs.NewRun(1 << 12)
	tables, err := Run("fig8", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("fig8 produced no tables")
	}

	m := o.Obs.Manifest()
	if !m.Finished || m.Experiment != "fig8" || m.Seed != o.Seed || m.Scale != 0.25 {
		t.Fatalf("manifest header wrong: %+v", m)
	}
	if m.Model != "pretrained" || m.ModelDigest != "fdf261adef8455b4" {
		t.Fatalf("manifest records model %q digest %q, want the 4-episode pretrained model", m.Model, m.ModelDigest)
	}
	if m.Networks == 0 || m.EventsProcessed == 0 || m.PacketsAlloced == 0 {
		t.Fatalf("engine totals empty: networks=%d events=%d packets=%d",
			m.Networks, m.EventsProcessed, m.PacketsAlloced)
	}
	if m.TraceEmitted == 0 {
		t.Fatal("no trace records emitted")
	}
	// Every hooked event class fires in fig8's incast mix: WRED drops and
	// marks, PFC pause/resume under the burst, DCQCN CNPs and rate cuts, TCP
	// RTOs from the background flows, ACC agent steps and their template
	// actuations. (link_state needs fault injection; see the robust test.)
	for _, kind := range []string{
		"drop", "ecn_mark", "pfc_pause", "pfc_resume", "wred_update",
		"cnp", "rate_cut", "tcp_rto", "agent_step",
	} {
		if m.TraceByKind[kind] == 0 {
			t.Errorf("no %q records in fig8 trace (kinds: %v)", kind, m.TraceByKind)
		}
	}

	// Manifest round-trips through JSON.
	var buf bytes.Buffer
	if err := m.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if m2, err := obs.DecodeManifest(&buf); err != nil || m2.TraceEmitted != m.TraceEmitted {
		t.Fatalf("manifest round-trip: err=%v m2=%+v", err, m2)
	}

	// The JSONL dump is non-empty and every line parses.
	buf.Reset()
	if err := o.Obs.Tracer.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateTraceJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace JSONL invalid: %v", err)
	}
	if n == 0 || n != m.TraceResident {
		t.Fatalf("trace dump has %d lines, want resident count %d", n, m.TraceResident)
	}

	// The metrics snapshot passes a scrape-format parser and carries the
	// trace counters.
	buf.Reset()
	if err := obs.WritePrometheus(&buf, o.Obs.Tracer, o.Obs); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("metrics snapshot rejected: %v", err)
	}
	if samples[`accsim_trace_records_total{kind="ecn_mark"}`] == 0 {
		t.Fatalf("metrics missing ecn_mark counter: %v", samples)
	}
	if samples[`accsim_run_finished`] != 1 {
		t.Fatal("metrics do not report a finished run")
	}
}

// TestObsRobustLinkfailDropReasonSplit pins the per-reason drop split in a
// fault run: the cable pull must show up as link_blackhole (in-flight loss
// at the port) and route_blackhole (ECMP set exhausted at the switch)
// drops, with the reasons exactly partitioning the drop record count.
func TestObsRobustLinkfailDropReasonSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := DefaultOptions()
	o.Scale = 0.25
	o.OfflineEpisodes = 4
	o.Obs = obs.NewRun(0)
	if _, err := Run("robust-linkfail", o); err != nil {
		t.Fatal(err)
	}
	m := o.Obs.Manifest()
	if m.DropsByReason["link_blackhole"] == 0 {
		t.Errorf("no link_blackhole drops traced in a link-failure run: %v", m.DropsByReason)
	}
	if m.DropsByReason["route_blackhole"] == 0 {
		t.Errorf("no route_blackhole drops traced in a link-failure run: %v", m.DropsByReason)
	}
	var sum uint64
	for _, n := range m.DropsByReason {
		sum += n
	}
	if sum != m.TraceByKind["drop"] {
		t.Errorf("drop reasons sum to %d, want every drop record attributed (%d)",
			sum, m.TraceByKind["drop"])
	}
	if m.TraceByKind["link_state"] == 0 {
		t.Error("no link_state records from the injected failures")
	}
}

// TestObsArmCounters pins the mechanism counters runArms writes to the
// manifest for ablation-busyidle's two D-ACC arms at golden options, and
// checks each arm's inferences and skipped ticks against the cells of its
// table row. At this scale no agent reaches a target sync and no exchange
// fires (the first is at 5 ms, after the 3 ms run).
func TestObsArmCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := goldenOptions("ablation-busyidle")
	o.Obs = obs.NewRun(0)
	tables, err := Run("ablation-busyidle", o)
	if err != nil {
		t.Fatal(err)
	}
	want := []obs.ArmCounters{
		{Arm: "gating on (paper)", Agents: 6, TrainSteps: 46, Inferences: 377, Skipped: 823,
			LocalReplay: 369, LocalReplayCap: 6 * 4096, GlobalReplayCap: 16384},
		{Arm: "gating off", Agents: 6, TrainSteps: 232, MinTrainSteps: 20, Inferences: 1200,
			LocalReplay: 1160, LocalReplayCap: 6 * 4096, GlobalReplayCap: 16384},
	}
	got := o.Obs.Manifest().Arms
	if !slices.Equal(got, want) {
		t.Fatalf("manifest arms\n got %+v\nwant %+v", got, want)
	}
	for i, row := range tables[0].Rows {
		if cells := []string{got[i].Arm, fmt.Sprint(got[i].Inferences), fmt.Sprint(got[i].Skipped)}; !slices.Equal(row[:3], cells) {
			t.Errorf("table row %v, manifest %v", row[:3], cells)
		}
	}
	notes := tables[0].Notes[len(tables[0].Notes)-len(got):]
	for i, a := range got {
		if notes[i] != a.Note() {
			t.Errorf("note %q, manifest arm %+v", notes[i], a)
		}
	}
	if want := "gating off: 232 train steps (least-trained agent 20, 0 target syncs), 0 exchanges, 1200 inferences, 0 skipped ticks, replay 1160/24576 local, 0/16384 global"; notes[1] != want {
		t.Errorf("note %q, want %q", notes[1], want)
	}
	plain, err := Run("ablation-busyidle", goldenOptions("ablation-busyidle"))
	if err != nil {
		t.Fatal(err)
	}
	if n, m := len(plain[0].Notes), len(tables[0].Notes); n != m-len(got) {
		t.Errorf("without Obs the table has %d notes, with it %d: want %d fewer", n, m, len(got))
	}

	// fig10 compares its arms once per model: each note names its model.
	o = goldenOptions("fig10")
	o.Obs = obs.NewRun(0)
	if tables, err = Run("fig10", o); err != nil {
		t.Fatal(err)
	}
	got = o.Obs.Manifest().Arms
	notes = tables[0].Notes[len(tables[0].Notes)-len(got):]
	for i, model := range []string{"AlexNet", "ResNet-50"} {
		if len(got) != 2 || got[i].Comparison != model || !strings.HasPrefix(notes[i], model+", ACC: ") {
			t.Fatalf("fig10 arms %+v, notes %q: want one ACC arm per model, named in its note", got, notes)
		}
	}
}
