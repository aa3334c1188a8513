package workload

// Deterministic flow-trace record/replay. A Trace is the engine-independent
// description of one run's offered traffic: every flow's endpoints, size,
// class, transport, and absolute start time, plus the fabric geometry and
// horizon needed to re-run it. Traces serialize to line-oriented JSON
// (human-greppable, one flow per line) or to a compact varint binary format
// (~1/6 the bytes), and convert to an engine-independent plan via
// psim.PlanFromTrace, so one captured trace replays bit-identically through
// the sequential packet engine, the sharded engine at any K, and the
// hybrid-fidelity fast path (see the differential tests in internal/exp and
// DESIGN.md "Workload engine").
//
// Recording happens from the live run: a Recorder observes each flow at the
// instant the engine actually starts it — via psim.Plan.OnStart for
// plan-driven runs, or by wrapping a StartFlowFunc for closed-loop jobs
// (collectives, Poisson generators) — so the captured trace reflects what
// the run executed, not merely what was intended.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"github.com/accnet/acc/internal/simtime"
)

// FlowTransport selects the protocol replaying one traced flow.
type FlowTransport uint8

const (
	// TransportDCQCN replays the flow over the RDMA rate-based transport.
	TransportDCQCN FlowTransport = iota
	// TransportTCP replays the flow over the windowed DCTCP transport.
	TransportTCP
)

func (t FlowTransport) String() string {
	if t == TransportTCP {
		return "tcp"
	}
	return "dcqcn"
}

// ParseTransport maps a spec/trace transport name to its enum.
func ParseTransport(s string) (FlowTransport, error) {
	switch s {
	case "", "dcqcn", "rdma":
		return TransportDCQCN, nil
	case "tcp", "dctcp":
		return TransportTCP, nil
	}
	return 0, fmt.Errorf("workload: unknown transport %q (want dcqcn or tcp)", s)
}

// TraceClass is one client/SLO class referenced by flows (by index), so the
// per-flow records stay fixed-size and the class table is written once.
type TraceClass struct {
	Name string `json:"name"`
	SLO  string `json:"slo,omitempty"`
}

// TraceFlow is one recorded flow. Endpoints address hosts by (leaf, host
// index under that leaf) — the same scheme as psim.HostRef — so a trace is
// meaningful on any engine building the same geometry.
type TraceFlow struct {
	Start     simtime.Time  `json:"t"`
	SrcLeaf   int           `json:"sl"`
	SrcHost   int           `json:"sh"`
	DstLeaf   int           `json:"dl"`
	DstHost   int           `json:"dh"`
	Bytes     int64         `json:"b"`
	Class     int           `json:"c"`
	Transport FlowTransport `json:"x,omitempty"`
}

// Trace is a replayable flow trace plus the run geometry it was captured on.
type Trace struct {
	Name         string       `json:"name"`
	Seed         int64        `json:"seed"`
	NLeaf        int          `json:"leaves"`
	HostsPerLeaf int          `json:"hosts_per_leaf"`
	NSpine       int          `json:"spines"`
	Horizon      simtime.Time `json:"horizon_ns"`

	Classes []TraceClass `json:"classes"`
	Flows   []TraceFlow  `json:"-"`
}

// Validate checks internal consistency: geometry positive, names UTF-8,
// endpoints and class indices in range, sizes positive, and starts inside
// the horizon.
func (t *Trace) Validate() error {
	if t.NLeaf <= 0 || t.HostsPerLeaf <= 0 || t.NSpine <= 0 {
		return fmt.Errorf("workload: trace %q geometry %dx%dx%d must be positive", t.Name, t.NLeaf, t.HostsPerLeaf, t.NSpine)
	}
	if t.Horizon <= 0 {
		return fmt.Errorf("workload: trace %q horizon %v must be positive", t.Name, t.Horizon)
	}
	// JSON carries only UTF-8, so any other name could not round-trip
	// through the JSONL form.
	if !utf8.ValidString(t.Name) {
		return fmt.Errorf("workload: trace name %q is not UTF-8", t.Name)
	}
	for i, c := range t.Classes {
		if !utf8.ValidString(c.Name) || !utf8.ValidString(c.SLO) {
			return fmt.Errorf("workload: trace %q class %d name %q or SLO %q is not UTF-8", t.Name, i, c.Name, c.SLO)
		}
	}
	for i, f := range t.Flows {
		if f.SrcLeaf < 0 || f.SrcLeaf >= t.NLeaf || f.DstLeaf < 0 || f.DstLeaf >= t.NLeaf ||
			f.SrcHost < 0 || f.SrcHost >= t.HostsPerLeaf || f.DstHost < 0 || f.DstHost >= t.HostsPerLeaf {
			return fmt.Errorf("workload: trace %q flow %d endpoints (%d,%d)->(%d,%d) outside %d leaves x %d hosts",
				t.Name, i, f.SrcLeaf, f.SrcHost, f.DstLeaf, f.DstHost, t.NLeaf, t.HostsPerLeaf)
		}
		if f.SrcLeaf == f.DstLeaf && f.SrcHost == f.DstHost {
			return fmt.Errorf("workload: trace %q flow %d sends to itself", t.Name, i)
		}
		if f.Bytes <= 0 {
			return fmt.Errorf("workload: trace %q flow %d size %d must be positive", t.Name, i, f.Bytes)
		}
		if f.Class < 0 || f.Class >= len(t.Classes) {
			return fmt.Errorf("workload: trace %q flow %d class %d outside class table (%d classes)", t.Name, i, f.Class, len(t.Classes))
		}
		if f.Transport > TransportTCP {
			return fmt.Errorf("workload: trace %q flow %d unknown transport %d", t.Name, i, f.Transport)
		}
		if f.Start < 0 || f.Start >= t.Horizon {
			return fmt.Errorf("workload: trace %q flow %d start %v outside [0, horizon %v)", t.Name, i, f.Start, t.Horizon)
		}
	}
	return nil
}

// Equal reports whether two traces are identical, field for field.
func (t *Trace) Equal(o *Trace) bool {
	if t.Name != o.Name || t.Seed != o.Seed || t.NLeaf != o.NLeaf ||
		t.HostsPerLeaf != o.HostsPerLeaf || t.NSpine != o.NSpine || t.Horizon != o.Horizon ||
		len(t.Classes) != len(o.Classes) || len(t.Flows) != len(o.Flows) {
		return false
	}
	for i := range t.Classes {
		if t.Classes[i] != o.Classes[i] {
			return false
		}
	}
	for i := range t.Flows {
		if t.Flows[i] != o.Flows[i] {
			return false
		}
	}
	return true
}

// ----- JSONL codec -----

// jsonHeader is the first line of the JSONL form: the trace metadata plus a
// format tag so a reader can reject foreign files with a clear error.
type jsonHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	*Trace
}

const (
	traceFormatTag   = "acc-flow-trace"
	traceJSONVersion = 1
)

// EncodeJSONL writes the trace as one header line followed by one compact
// JSON object per flow. The encoding is canonical: encoding the decode of an
// encoding reproduces the bytes exactly (the replay-artifact diff in CI
// leans on that).
func (t *Trace) EncodeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(jsonHeader{Format: traceFormatTag, Version: traceJSONVersion, Trace: t})
	if err != nil {
		return err
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	for i := range t.Flows {
		line, err := json.Marshal(&t.Flows[i])
		if err != nil {
			return err
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// decodeJSONL parses the JSONL form.
func decodeJSONL(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("workload: empty trace file")
	}
	var hdr jsonHeader
	hdr.Trace = &Trace{}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	if hdr.Format != traceFormatTag {
		return nil, fmt.Errorf("workload: not a flow trace (format %q, want %q)", hdr.Format, traceFormatTag)
	}
	if hdr.Version != traceJSONVersion {
		return nil, fmt.Errorf("workload: unsupported trace version %d (want %d)", hdr.Version, traceJSONVersion)
	}
	tr := hdr.Trace
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var f TraceFlow
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return nil, fmt.Errorf("workload: trace flow %d: %w", len(tr.Flows), err)
		}
		tr.Flows = append(tr.Flows, f)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ----- binary codec -----

// traceMagic opens the compact binary form; the trailing byte is the
// format version.
var traceMagic = []byte{'A', 'C', 'C', 'T', 1}

// EncodeBinary writes the compact varint binary form: magic, header,
// class table, then per-flow records with delta-encoded start times.
func (t *Trace) EncodeBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.Write(traceMagic)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		bw.Write(scratch[:n])
	}
	putVarint := func(v int64) {
		n := binary.PutVarint(scratch[:], v)
		bw.Write(scratch[:n])
	}
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		bw.WriteString(s)
	}
	putString(t.Name)
	putVarint(t.Seed)
	putUvarint(uint64(t.NLeaf))
	putUvarint(uint64(t.HostsPerLeaf))
	putUvarint(uint64(t.NSpine))
	putUvarint(uint64(t.Horizon))
	putUvarint(uint64(len(t.Classes)))
	for _, c := range t.Classes {
		putString(c.Name)
		putString(c.SLO)
	}
	putUvarint(uint64(len(t.Flows)))
	prev := simtime.Time(0)
	for _, f := range t.Flows {
		putVarint(int64(f.Start - prev)) // signed: recorders need not sort
		prev = f.Start
		putUvarint(uint64(f.SrcLeaf))
		putUvarint(uint64(f.SrcHost))
		putUvarint(uint64(f.DstLeaf))
		putUvarint(uint64(f.DstHost))
		putUvarint(uint64(f.Bytes))
		putUvarint(uint64(f.Class))
		putUvarint(uint64(f.Transport))
	}
	return bw.Flush()
}

// decodeBinary parses the compact binary form (after the magic has been
// consumed by DecodeTrace's sniff).
func decodeBinary(br *bufio.Reader) (*Trace, error) {
	var err error
	getUvarint := func() uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		v, err = binary.ReadUvarint(br)
		return v
	}
	getVarint := func() int64 {
		if err != nil {
			return 0
		}
		var v int64
		v, err = binary.ReadVarint(br)
		return v
	}
	getString := func() string {
		n := getUvarint()
		if err != nil {
			return ""
		}
		if n > 1<<20 {
			err = fmt.Errorf("workload: binary trace string length %d implausible", n)
			return ""
		}
		// Read what is there rather than allocate what the length claims.
		var buf []byte
		buf, err = io.ReadAll(io.LimitReader(br, int64(n)))
		if err == nil && uint64(len(buf)) < n {
			err = io.ErrUnexpectedEOF
		}
		return string(buf)
	}
	tr := &Trace{}
	tr.Name = getString()
	tr.Seed = getVarint()
	tr.NLeaf = int(getUvarint())
	tr.HostsPerLeaf = int(getUvarint())
	tr.NSpine = int(getUvarint())
	tr.Horizon = simtime.Time(getUvarint())
	nClasses := getUvarint()
	if err == nil && nClasses > 1<<16 {
		err = fmt.Errorf("workload: binary trace class count %d implausible", nClasses)
	}
	for i := uint64(0); err == nil && i < nClasses; i++ {
		tr.Classes = append(tr.Classes, TraceClass{Name: getString(), SLO: getString()})
	}
	nFlows := getUvarint()
	if err == nil && nFlows > 1<<32 {
		err = fmt.Errorf("workload: binary trace flow count %d implausible", nFlows)
	}
	if err == nil {
		// The count is the file's claim; the records must still be read,
		// so preallocate no more than a small trace needs and let append
		// grow with what the input actually holds.
		tr.Flows = make([]TraceFlow, 0, min(nFlows, 1024))
	}
	prev := simtime.Time(0)
	for i := uint64(0); err == nil && i < nFlows; i++ {
		var f TraceFlow
		f.Start = prev + simtime.Time(getVarint())
		prev = f.Start
		f.SrcLeaf = int(getUvarint())
		f.SrcHost = int(getUvarint())
		f.DstLeaf = int(getUvarint())
		f.DstHost = int(getUvarint())
		f.Bytes = int64(getUvarint())
		f.Class = int(getUvarint())
		f.Transport = FlowTransport(getUvarint())
		tr.Flows = append(tr.Flows, f)
	}
	if err != nil {
		return nil, fmt.Errorf("workload: binary trace: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// DecodeTrace sniffs the format (binary magic vs JSON '{') and parses.
func DecodeTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(traceMagic))
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("workload: trace: %w", err)
	}
	if bytes.Equal(head, traceMagic) {
		br.Discard(len(traceMagic))
		return decodeBinary(br)
	}
	return decodeJSONL(br)
}

// WriteFile writes the trace to path, choosing the format by extension:
// ".bin" selects the compact binary form, anything else the JSONL form.
func (t *Trace) WriteFile(path string) error {
	var buf bytes.Buffer
	var err error
	if strings.HasSuffix(path, ".bin") {
		err = t.EncodeBinary(&buf)
	} else {
		err = t.EncodeJSONL(&buf)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadTraceFile reads and validates a trace in either format.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := DecodeTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// ----- recording -----

// Recorder captures the flows of a live run. Two hook styles feed it:
//
//   - ObserveStart(i, at) for plan-driven runs (wire it to psim.Plan.OnStart):
//     flow identity comes from the source trace, the recorder only stamps the
//     instant the engine actually started it. Observations land in a
//     per-flow slot, so concurrent shard workers may report without locking
//     and the recorded order is independent of goroutine interleaving.
//
//   - RecordFlow for closed-loop jobs (collectives, generators)
//     on a sequential Network: appends flows in start order under a mutex.
//
// Trace() then assembles the recorded trace, sorted stably by start time.
type Recorder struct {
	source   *Trace
	observed []simtime.Time // per source flow; -1 = never started

	mu      sync.Mutex
	classes []TraceClass
	byName  map[string]int
	flows   []TraceFlow
	locate  func(hostID int) (leaf, host int, ok bool)

	name         string
	seed         int64
	nLeaf        int
	hostsPerLeaf int
	nSpine       int
	horizon      simtime.Time
}

// NewPlanRecorder records a replay/generated-trace run: the flows of source
// are re-recorded at their observed start instants.
func NewPlanRecorder(source *Trace) *Recorder {
	obs := make([]simtime.Time, len(source.Flows))
	for i := range obs {
		obs[i] = -1
	}
	return &Recorder{source: source, observed: obs}
}

// ObserveStart stamps source flow i as started at the given instant. Safe
// for concurrent use across shard workers: each flow owns its slot.
func (r *Recorder) ObserveStart(i int, at simtime.Time) { r.observed[i] = at }

// Observed returns source flow i's recorded start instant; ok is false if
// the flow never started within the run.
func (r *Recorder) Observed(i int) (at simtime.Time, ok bool) {
	if i < 0 || i >= len(r.observed) || r.observed[i] < 0 {
		return 0, false
	}
	return r.observed[i], true
}

// NewLiveRecorder records arbitrary closed-loop traffic on a sequential
// Network. locate maps a netsim host id to its (leaf, host) coordinates —
// build it from topo.Fabric.HostsAt or psim.Engine.Hosts.
func NewLiveRecorder(name string, seed int64, nLeaf, hostsPerLeaf, nSpine int, horizon simtime.Time,
	locate func(hostID int) (leaf, host int, ok bool)) *Recorder {
	return &Recorder{
		name: name, seed: seed, nLeaf: nLeaf, hostsPerLeaf: hostsPerLeaf, nSpine: nSpine,
		horizon: horizon, locate: locate, byName: map[string]int{},
	}
}

// RecordFlow appends one live flow observation. Hosts outside the locate
// map are dropped (the run may include infrastructure traffic the trace
// format cannot address).
func (r *Recorder) RecordFlow(at simtime.Time, srcID, dstID int, size int64, class, slo string, tr FlowTransport) {
	sl, sh, ok := r.locate(srcID)
	if !ok {
		return
	}
	dl, dh, ok := r.locate(dstID)
	if !ok {
		return
	}
	r.mu.Lock()
	ci, seen := r.byName[class]
	if !seen {
		ci = len(r.classes)
		r.classes = append(r.classes, TraceClass{Name: class, SLO: slo})
		r.byName[class] = ci
	}
	r.flows = append(r.flows, TraceFlow{
		Start: at, SrcLeaf: sl, SrcHost: sh, DstLeaf: dl, DstHost: dh,
		Bytes: size, Class: ci, Transport: tr,
	})
	r.mu.Unlock()
}

// Trace assembles the recorded trace: observed flows stably sorted by start
// time (ties keep recording order, which for plan runs is plan order — the
// engines' admission order at equal instants). Plan-recorder flows that
// never started (their start event lay beyond the run horizon) are dropped.
func (r *Recorder) Trace() *Trace {
	var tr *Trace
	if r.source != nil {
		tr = &Trace{
			Name: r.source.Name, Seed: r.source.Seed,
			NLeaf: r.source.NLeaf, HostsPerLeaf: r.source.HostsPerLeaf, NSpine: r.source.NSpine,
			Horizon: r.source.Horizon,
			Classes: append([]TraceClass(nil), r.source.Classes...),
		}
		for i, f := range r.source.Flows {
			if r.observed[i] < 0 {
				continue
			}
			f.Start = r.observed[i]
			tr.Flows = append(tr.Flows, f)
		}
	} else {
		r.mu.Lock()
		tr = &Trace{
			Name: r.name, Seed: r.seed,
			NLeaf: r.nLeaf, HostsPerLeaf: r.hostsPerLeaf, NSpine: r.nSpine,
			Horizon: r.horizon,
			Classes: append([]TraceClass(nil), r.classes...),
			Flows:   append([]TraceFlow(nil), r.flows...),
		}
		r.mu.Unlock()
	}
	sort.SliceStable(tr.Flows, func(i, j int) bool { return tr.Flows[i].Start < tr.Flows[j].Start })
	return tr
}
