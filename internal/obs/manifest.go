package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/accnet/acc/internal/snap/codec"
)

// Manifest describes one experiment run: what was run, with which knobs,
// and the aggregate totals observed. It is written as JSON alongside the
// run's result tables so a trace/metrics snapshot can always be tied back
// to the exact configuration that produced it.
type Manifest struct {
	Experiment string            `json:"experiment"`
	Seed       int64             `json:"seed"`
	Scale      float64           `json:"scale"`
	Config     map[string]string `json:"config,omitempty"` // free-form knobs (fault plan, episodes, ...)
	StartedAt  time.Time         `json:"started_at"`
	WallTimeS  float64           `json:"wall_time_s"`
	Finished   bool              `json:"finished"`

	// Model names the offline model the run's ACC arms deployed: its file,
	// or "pretrained" (see Config's offline_episodes); ModelDigest is its
	// weights' FNV-64a.
	Model       string `json:"model,omitempty"`
	ModelDigest string `json:"model_digest,omitempty"`

	// Engine totals summed over every Network the run created.
	Networks        int    `json:"networks"`
	Shards          int    `json:"shards,omitempty"` // parallel-engine shard count, 0 for sequential runs
	EventsProcessed uint64 `json:"events_processed"`
	PacketsAlloced  uint64 `json:"packets_alloced"`

	// Fidelity summarizes hybrid-fidelity activity (internal/hybrid): how
	// much of the run was fast-forwarded in closed form and how often links
	// crossed the analytic/packet boundary. Nil for pure packet-level runs.
	Fidelity *FidelitySummary `json:"fidelity,omitempty"`

	// Workload summarizes a spec-driven/replayed workload-engine run: the
	// per-SLO-class FCT tails and the Jain fairness index over class
	// goodputs. Nil for runs without workload-engine traffic.
	Workload *WorkloadManifest `json:"workload,omitempty"`
	Arms     []ArmCounters     `json:"arms,omitempty"` // each D-ACC arm's mechanism counters, in run order

	// Trace totals at finish time.
	TraceEmitted  uint64            `json:"trace_emitted"`
	TraceByKind   map[string]uint64 `json:"trace_by_kind,omitempty"`
	DropsByReason map[string]uint64 `json:"drops_by_reason,omitempty"`
	TraceRingCap  int               `json:"trace_ring_cap"`
	TraceResident int               `json:"trace_resident"`
}

// FidelitySummary aggregates one or more hybrid engines' mode accounting
// for the manifest. All fields are sums; AddFidelity merges engines.
type FidelitySummary struct {
	FlowsStarted    uint64 `json:"flows_started"`          // flows registered with a hybrid engine
	AnalyticFlows   uint64 `json:"analytic_flows"`         // flows completed entirely in closed form
	PacketFlows     uint64 `json:"packet_flows"`           // flows started at or demoted to packet level
	Demotions       uint64 `json:"demotions"`              // link analytic→packet transitions
	Promotions      uint64 `json:"promotions"`             // link packet→analytic transitions
	AnalyticPayload uint64 `json:"analytic_payload_bytes"` // payload bytes delivered in closed form
	Ticks           uint64 `json:"ticks"`                  // analytic advance windows executed
}

// State visits the summary (snapshot support: a hybrid engine's counters).
func (s *FidelitySummary) State(v *codec.Visitor) {
	v.U64(&s.FlowsStarted)
	v.U64(&s.AnalyticFlows)
	v.U64(&s.PacketFlows)
	v.U64(&s.Demotions)
	v.U64(&s.Promotions)
	v.U64(&s.AnalyticPayload)
	v.U64(&s.Ticks)
}

// AddFidelity merges one hybrid engine's summary into the manifest,
// allocating the aggregate on first use. Runs that build several engines
// (one per policy arm) report their combined totals.
func (r *Run) AddFidelity(s FidelitySummary) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.man.Fidelity == nil {
		r.man.Fidelity = &FidelitySummary{}
	}
	f := r.man.Fidelity
	f.FlowsStarted += s.FlowsStarted
	f.AnalyticFlows += s.AnalyticFlows
	f.PacketFlows += s.PacketFlows
	f.Demotions += s.Demotions
	f.Promotions += s.Promotions
	f.AnalyticPayload += s.AnalyticPayload
	f.Ticks += s.Ticks
}

// ArmCounters are one D-ACC arm's learning counters at the end of its run.
type ArmCounters struct {
	Comparison      string `json:"comparison,omitempty"` // what its comparison varies, in an experiment of several
	Arm             string `json:"arm"`
	Agents          int    `json:"agents"`
	TrainSteps      int    `json:"train_steps"`       // summed over agents
	MinTrainSteps   int    `json:"min_train_steps"`   // of the least-trained agent
	MinTargetSyncs  int    `json:"min_target_syncs"`  // of the least-synced agent
	Exchanges       uint64 `json:"exchanges"`         // global replay exchanges
	Inferences      uint64 `json:"inferences"`        // summed over tuners
	Skipped         uint64 `json:"skipped"`           // idle queue ticks, summed over tuners
	LocalReplay     int    `json:"local_replay"`      // summed over agents
	LocalReplayCap  int    `json:"local_replay_cap"`  // summed over agents
	GlobalReplay    int    `json:"global_replay"`     // the shared memory's
	GlobalReplayCap int    `json:"global_replay_cap"` // the shared memory's
}

// Note renders the counters as one table note line, led by comparison and arm.
func (a ArmCounters) Note() string {
	name := a.Arm
	if a.Comparison != "" {
		name = a.Comparison + ", " + a.Arm
	}
	return fmt.Sprintf("%s: %d train steps (least-trained agent %d, %d target syncs), %d exchanges, %d inferences, %d skipped ticks, replay %d/%d local, %d/%d global",
		name, a.TrainSteps, a.MinTrainSteps, a.MinTargetSyncs, a.Exchanges, a.Inferences, a.Skipped, a.LocalReplay, a.LocalReplayCap, a.GlobalReplay, a.GlobalReplayCap)
}

// AddArm appends one arm's counters to the manifest.
func (r *Run) AddArm(a ArmCounters) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.man.Arms = append(r.man.Arms, a)
	r.mu.Unlock()
}

// ClassManifest is one workload class's completed-flow summary.
type ClassManifest struct {
	Name     string  `json:"name"`
	SLO      string  `json:"slo,omitempty"`
	Flows    int     `json:"flows"`
	Bytes    int64   `json:"bytes"`
	FCTp50Ns int64   `json:"fct_p50_ns"`
	FCTp99Ns int64   `json:"fct_p99_ns"`
	MeanGbps float64 `json:"mean_gbps"`
}

// WorkloadManifest records what the workload engine offered and how each
// class fared. Spec/Trace/Replay describe provenance: the spec that
// generated the traffic, the trace file it was recorded to, and/or the
// trace file it was replayed from.
type WorkloadManifest struct {
	Spec    string          `json:"spec,omitempty"`
	Trace   string          `json:"trace,omitempty"`
	Replay  string          `json:"replay,omitempty"`
	Flows   int             `json:"flows"`
	Classes []ClassManifest `json:"classes,omitempty"`
	Jain    float64         `json:"jain_fairness"`
}

// SetWorkload installs the workload engine's per-class summary.
func (r *Run) SetWorkload(w WorkloadManifest) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.man.Workload = &w
	r.mu.Unlock()
}

// EncodeJSON writes the manifest as indented JSON.
func (m *Manifest) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// DecodeManifest parses a manifest written by EncodeJSON.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Run ties a Tracer to the manifest of one experiment execution. The
// experiment harness calls Begin before running, RegisterEngine for every
// simulation Network it creates (engines report their event/packet totals
// lazily, so registration costs nothing during the run), and Finish after
// the last table is produced. Manifest() is safe to call while the run is
// still in flight — the live endpoint serves partial manifests.
type Run struct {
	Tracer *Tracer

	mu      sync.Mutex
	man     Manifest
	engines []engineFns
}

type engineFns struct{ events, packets func() uint64 }

// NewRun returns a run whose trace ring holds ringCap records
// (<=0 selects DefaultRingCap).
func NewRun(ringCap int) *Run {
	return &Run{Tracer: NewTracer(ringCap)}
}

// Begin stamps the manifest header for one experiment execution.
func (r *Run) Begin(experiment string, seed int64, scale float64, config map[string]string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.man = Manifest{
		Experiment: experiment,
		Seed:       seed,
		Scale:      scale,
		Config:     config,
		//acclint:ignore determinism@1 wall-clock run metadata for humans, never read back into simulation state
		StartedAt: time.Now().UTC(),
	}
	r.engines = nil
}

// SetShards records the parallel-engine shard count in the manifest. Leave
// unset (zero) for sequential runs.
func (r *Run) SetShards(k int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.man.Shards = k
	r.mu.Unlock()
}

// SetModel records the deployed offline model's source and weights digest.
func (r *Run) SetModel(source string, digest uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.man.Model, r.man.ModelDigest = source, fmt.Sprintf("%016x", digest)
	r.mu.Unlock()
}

// RegisterEngine adds one simulation engine's lazy total reporters
// (typically net.Q.Processed and net.PacketsAlloced method values). Safe
// to call from parallel experiment workers.
func (r *Run) RegisterEngine(events, packets func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.engines = append(r.engines, engineFns{events, packets})
	r.mu.Unlock()
}

// Finish stamps wall time and engine/trace totals. The registered engines
// must be idle (the experiment has returned) when Finish is called.
func (r *Run) Finish() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	//acclint:ignore determinism@1 wall-clock run metadata for humans, never read back into simulation state
	r.man.WallTimeS = time.Since(r.man.StartedAt).Seconds()
	r.man.Finished = true
	r.man.Networks = len(r.engines)
	r.man.EventsProcessed, r.man.PacketsAlloced = 0, 0
	for _, e := range r.engines {
		if e.events != nil {
			r.man.EventsProcessed += e.events()
		}
		if e.packets != nil {
			r.man.PacketsAlloced += e.packets()
		}
	}
	snap := r.Tracer.Snapshot()
	r.man.TraceEmitted = snap.Emitted
	r.man.TraceByKind = snap.ByKind
	r.man.DropsByReason = snap.Drops
	if r.Tracer != nil {
		r.man.TraceRingCap = cap(r.Tracer.ring)
		r.man.TraceResident = r.Tracer.Len()
	}
}

// Manifest returns a copy of the current manifest (partial until Finish).
func (r *Run) Manifest() Manifest {
	if r == nil {
		return Manifest{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.man
}
