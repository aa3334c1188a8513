package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

func testTrace() *Trace {
	return &Trace{
		Name: "t", Seed: 7, NLeaf: 2, HostsPerLeaf: 2, NSpine: 1,
		Horizon: simtime.Time(100 * simtime.Microsecond),
		Classes: []TraceClass{{Name: "web", SLO: "latency"}, {Name: "bulk", SLO: "bulk"}},
		Flows: []TraceFlow{
			{Start: 0, SrcLeaf: 0, SrcHost: 0, DstLeaf: 1, DstHost: 1, Bytes: 1500, Class: 0, Transport: TransportDCQCN},
			{Start: simtime.Time(3 * simtime.Microsecond), SrcLeaf: 1, SrcHost: 0, DstLeaf: 0, DstHost: 1, Bytes: 1 << 20, Class: 1, Transport: TransportTCP},
			{Start: simtime.Time(9 * simtime.Microsecond), SrcLeaf: 0, SrcHost: 1, DstLeaf: 1, DstHost: 0, Bytes: 64, Class: 0, Transport: TransportDCQCN},
		},
	}
}

// Both encodings must round-trip to an Equal trace, and re-encoding the
// decoded trace must reproduce the original bytes — the canonical-encoding
// property CI's byte-diff of recorded traces relies on.
func TestTraceRoundTripCanonical(t *testing.T) {
	tr := testTrace()
	encoders := map[string]func(*Trace, *bytes.Buffer) error{
		"jsonl":  func(tr *Trace, b *bytes.Buffer) error { return tr.EncodeJSONL(b) },
		"binary": func(tr *Trace, b *bytes.Buffer) error { return tr.EncodeBinary(b) },
	}
	for name, enc := range encoders {
		var b1 bytes.Buffer
		if err := enc(tr, &b1); err != nil {
			t.Fatalf("%s encode: %v", name, err)
		}
		got, err := DecodeTrace(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("%s decode: %v", name, err)
		}
		if !tr.Equal(got) {
			t.Fatalf("%s round-trip changed the trace", name)
		}
		var b2 bytes.Buffer
		if err := enc(got, &b2); err != nil {
			t.Fatalf("%s re-encode: %v", name, err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("%s encoding is not canonical: re-encode differs", name)
		}
	}
}

func TestTraceWriteFileSelectsFormat(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace()
	for _, name := range []string{"t.bin", "t.jsonl"} {
		path := filepath.Join(dir, name)
		if err := tr.WriteFile(path); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		isBinary := bytes.HasPrefix(buf, traceMagic)
		if want := filepath.Ext(name) == ".bin"; isBinary != want {
			t.Fatalf("%s: binary=%v, want %v", name, isBinary, want)
		}
		got, err := ReadTraceFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !tr.Equal(got) {
			t.Fatalf("%s: file round-trip changed the trace", name)
		}
	}
}

func TestTraceValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
	}{
		{"zero geometry", func(tr *Trace) { tr.NLeaf = 0 }},
		{"zero horizon", func(tr *Trace) { tr.Horizon = 0 }},
		{"name not UTF-8", func(tr *Trace) { tr.Name = "\xa0" }},
		{"class SLO not UTF-8", func(tr *Trace) { tr.Classes[1].SLO = "bulk\xff" }},
		{"leaf out of range", func(tr *Trace) { tr.Flows[0].DstLeaf = 2 }},
		{"host out of range", func(tr *Trace) { tr.Flows[0].SrcHost = 9 }},
		{"class out of range", func(tr *Trace) { tr.Flows[1].Class = 5 }},
		{"self send", func(tr *Trace) { f := &tr.Flows[0]; f.DstLeaf, f.DstHost = f.SrcLeaf, f.SrcHost }},
		{"zero bytes", func(tr *Trace) { tr.Flows[2].Bytes = 0 }},
		{"unknown transport", func(tr *Trace) { tr.Flows[0].Transport = 9 }},
		{"start past horizon", func(tr *Trace) { tr.Flows[2].Start = tr.Horizon + 1 }},
	}
	for _, c := range cases {
		tr := testTrace()
		c.mut(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid trace", c.name)
		}
	}
	if err := testTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestParseTransport(t *testing.T) {
	for s, want := range map[string]FlowTransport{
		"": TransportDCQCN, "dcqcn": TransportDCQCN, "rdma": TransportDCQCN,
		"tcp": TransportTCP, "dctcp": TransportTCP,
	} {
		got, err := ParseTransport(s)
		if err != nil || got != want {
			t.Errorf("ParseTransport(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseTransport("quic"); err == nil {
		t.Error("unknown transport accepted")
	}
}

// A plan recorder re-records the source trace with observed start times; a
// flow never observed (still queued at the horizon) is dropped.
func TestPlanRecorder(t *testing.T) {
	src := testTrace()
	rec := NewPlanRecorder(src)
	if _, ok := rec.Observed(0); ok {
		t.Fatal("unobserved flow reported as observed")
	}
	rec.ObserveStart(0, 10)
	rec.ObserveStart(2, 5) // observed out of plan order
	got := rec.Trace()
	if len(got.Flows) != 2 {
		t.Fatalf("re-recorded %d flows, want 2 (unobserved dropped)", len(got.Flows))
	}
	// Re-recorded flows sort by observed start: flow 2 (at 5) before flow 0.
	if got.Flows[0].Bytes != 64 || got.Flows[0].Start != 5 {
		t.Fatalf("first re-recorded flow = %+v, want flow 2 at t=5", got.Flows[0])
	}
	if got.Flows[1].Start != 10 {
		t.Fatalf("second re-recorded flow starts at %v, want 10", got.Flows[1].Start)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("re-recorded trace invalid: %v", err)
	}
	if len(got.Classes) != len(src.Classes) {
		t.Fatal("plan recorder must preserve the source class table")
	}
}

func TestLiveRecorder(t *testing.T) {
	// Hosts 0..3 map to a 2x2 fabric; host 99 is unlocatable.
	locate := func(id int) (int, int, bool) {
		if id < 0 || id > 3 {
			return 0, 0, false
		}
		return id / 2, id % 2, true
	}
	rec := NewLiveRecorder("live", 3, 2, 2, 1, simtime.Time(simtime.Millisecond), locate)
	rec.RecordFlow(20, 0, 3, 100, "web", "latency", TransportDCQCN)
	rec.RecordFlow(10, 2, 1, 200, "bulk", "bulk", TransportTCP)
	rec.RecordFlow(30, 99, 1, 300, "web", "latency", TransportDCQCN) // dropped
	rec.RecordFlow(40, 1, 2, 400, "web", "latency", TransportDCQCN)
	got := rec.Trace()
	if err := got.Validate(); err != nil {
		t.Fatalf("live trace invalid: %v", err)
	}
	if len(got.Flows) != 3 {
		t.Fatalf("recorded %d flows, want 3 (unlocatable host dropped)", len(got.Flows))
	}
	if got.Flows[0].Start != 10 || got.Flows[1].Start != 20 || got.Flows[2].Start != 40 {
		t.Fatalf("flows not sorted by start: %+v", got.Flows)
	}
	if len(got.Classes) != 2 {
		t.Fatalf("class table has %d entries, want 2", len(got.Classes))
	}
	// Both "web" flows must share one class index.
	if got.Flows[1].Class != got.Flows[2].Class {
		t.Fatal("same-named flows got different class indices")
	}
}
