package lint

// Config scopes the checkers to the packages and types they guard. The
// zero value checks nothing; DefaultConfig returns the repository's real
// invariant surface. Fixture tests construct narrow configs pointing at
// testdata packages.
type Config struct {
	// DeterministicPkgs are import paths whose code must replay
	// bit-for-bit: no wall clock, no global RNG, no goroutines, no
	// un-annotated map iteration.
	DeterministicPkgs []string

	// EnginePkgs are import paths on the per-packet hot path where
	// function-literal arguments to the scheduler are forbidden — the
	// typed pooled fast path (pre-bound method values) is mandatory.
	EnginePkgs []string

	// QueueTypes name the scheduler types ("importpath.TypeName") whose
	// scheduling methods the hotpath checker watches.
	QueueTypes []string

	// TracerTypes name the tracer types ("importpath.TypeName") whose
	// exported methods must begin with the nil-receiver guard.
	TracerTypes []string

	// HotRoots are the entry points of the per-packet pipeline, written
	// "importpath.Func" or "importpath.Type.Method" (pointer-ness of the
	// receiver is irrelevant). Functions statically reachable from any
	// root must not format or concatenate strings.
	HotRoots []string

	// CodecVisitorType names the snapshot codec's Visitor
	// ("importpath.TypeName"): a method named state or State that takes it
	// is a state walk, which anchors the snapcover checker. When empty,
	// snapcover is inert.
	CodecVisitorType string

	// BarrierOwnedTypes name coordinator-owned types
	// ("importpath.TypeName") whose fields may only be mutated in barrier
	// contexts: barriermut flags writes from anywhere else.
	BarrierOwnedTypes []string

	// BarrierSlotFields ("importpath.Type.Field") are the per-flow slot
	// fields: element writes into them are the sanctioned race-free
	// deferral mechanism and are legal from any context, including
	// shard-window closures.
	BarrierSlotFields []string

	// BarrierRoots are named functions that establish a barrier context
	// (the coordinator loop, plan application, sequential-mode drivers):
	// functions statically reachable from them — through named calls, not
	// through function literals — may mutate coordinator-owned state.
	BarrierRoots []string

	// BarrierMutMethods are coordinator methods that mutate shared state
	// behind a call ("importpath.Type.Method"); calling one outside a
	// barrier context is flagged like a direct write.
	BarrierMutMethods []string

	// Allow exempts (check, package, file, function) tuples from a
	// checker. Unlike //acclint:ignore annotations, allowlist entries are
	// configuration: they cover whole files or functions that are
	// concurrent or wall-clock by design, and a run does not check them
	// for staleness (TestDefaultConfigResolves holds DefaultConfig's
	// entries, like its other names, to the tree).
	Allow []AllowEntry
}

// AllowEntry is one allowlist row. Pkg is required; empty Check, File, or
// Func act as wildcards. File matches the base name of the source file.
type AllowEntry struct {
	Check  string
	Pkg    string
	File   string
	Func   string
	Reason string
}

// allowed reports whether the (check, pkg, file, fn) tuple is exempted.
func (c *Config) allowed(check, pkg, file, fn string) bool {
	for _, a := range c.Allow {
		if a.Pkg != pkg {
			continue
		}
		if a.Check != "" && a.Check != check {
			continue
		}
		if a.File != "" && a.File != file {
			continue
		}
		if a.Func != "" && a.Func != fn {
			continue
		}
		return true
	}
	return false
}

func stringSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}

// Module is the import path of the repository this suite guards.
const Module = "github.com/accnet/acc"

func internalPkgs(names ...string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = Module + "/internal/" + n
	}
	return out
}

// DefaultConfig describes the repository's invariant surface: which
// packages must replay deterministically, which are on the per-packet hot
// path, and where the known-concurrent exceptions live.
func DefaultConfig() *Config {
	return &Config{
		// Everything the simulator executes between seed and result table
		// must be a pure function of the seed. stats and obs ride along:
		// monitors tick inside the engine, and tracer hooks run on the
		// packet path.
		DeterministicPkgs: internalPkgs(
			"simtime", "eventq", "netsim", "red", "dcqcn", "tcp", "topo",
			"workload", "rl", "acc", "exp", "stats", "obs", "psim",
			"hybrid", "snap", "sweep",
		),
		// Packages whose scheduling must stay on the closure-free typed
		// fast path (pre-bound method values, pooled events).
		EnginePkgs: internalPkgs("eventq", "netsim", "tcp", "dcqcn", "stats", "hybrid"),
		QueueTypes: []string{Module + "/internal/eventq.Queue"},
		TracerTypes: []string{
			Module + "/internal/obs.Tracer",
		},
		// Entry points of the per-packet pipeline: ingress/egress on
		// hosts, switches, and ports, the transport packet handlers, the
		// timer callbacks they re-arm, and the in-engine stats ticks.
		HotRoots: []string{
			Module + "/internal/netsim.Switch.Receive",
			Module + "/internal/netsim.Host.Receive",
			Module + "/internal/netsim.Host.Send",
			Module + "/internal/netsim.Port.Enqueue",
			Module + "/internal/netsim.Port.trySend",
			Module + "/internal/netsim.Port.txDone",
			Module + "/internal/netsim.Port.arrive",
			Module + "/internal/netsim.Port.deliver",
			Module + "/internal/netsim.Port.remoteArrive",
			Module + "/internal/netsim.Port.SendCtrl",
			Module + "/internal/netsim.Port.Warm",
			Module + "/internal/netsim.Network.AllocPacket",
			Module + "/internal/netsim.Network.ReleasePacket",
			Module + "/internal/tcp.Flow.senderHandle",
			Module + "/internal/tcp.Receiver.handle",
			Module + "/internal/tcp.Flow.trySend",
			Module + "/internal/tcp.Flow.onRTO",
			Module + "/internal/dcqcn.Flow.senderHandle",
			Module + "/internal/dcqcn.Receiver.handle",
			Module + "/internal/dcqcn.Flow.trySend",
			Module + "/internal/stats.QueueMonitor.tick",
			Module + "/internal/eventq.Queue.Step",
			// The calendar's read-ahead over a dense day.
			Module + "/internal/eventq.Queue.warm",
			// Hybrid fast-path analytic advance: the tick and the
			// fill/commit kernels it reaches.
			Module + "/internal/hybrid.Engine.Tick",
			Module + "/internal/hybrid.Engine.commitTo",
			Module + "/internal/hybrid.Engine.waterfill",
		},
		// Every state walk in the tree saves and restores through it.
		CodecVisitorType: Module + "/internal/snap/codec.Visitor",
		// Coordinator-owned state in the parallel engine and the hybrid
		// overlay: mutations must happen at the barrier (or through the
		// slot fields below).
		BarrierOwnedTypes: []string{
			Module + "/internal/psim.Engine",
			Module + "/internal/psim.HybridState",
			Module + "/internal/psim.Applied",
			Module + "/internal/psim.Plan",
			Module + "/internal/hybrid.Engine",
			Module + "/internal/hybrid.Link",
			Module + "/internal/hybrid.Flow",
		},
		// Per-flow slot fields: disjoint element writes are the sanctioned
		// way for shard-window callbacks to defer effects to the barrier.
		BarrierSlotFields: []string{
			Module + "/internal/psim.HybridState.hflows",
			Module + "/internal/psim.HybridState.packetDone",
			Module + "/internal/psim.Applied.End",
			Module + "/internal/psim.Applied.DCQCNSend",
			Module + "/internal/psim.Applied.DCQCNRecv",
			Module + "/internal/psim.Applied.TCPSend",
			Module + "/internal/psim.Applied.TCPRecv",
		},
		// Barrier contexts: construction/apply (shards not yet running)
		// and the coordinator loop itself.
		BarrierRoots: []string{
			Module + "/internal/psim.Build",
			Module + "/internal/psim.PlanFromTrace",
			Module + "/internal/psim.RecordPlan",
			Module + "/internal/hybrid.NewBarrier",
			Module + "/internal/psim.Engine.Run",
			Module + "/internal/psim.Engine.Apply",
			Module + "/internal/psim.Engine.ApplyHybrid",
			Module + "/internal/psim.ApplyToFabric",
			Module + "/internal/psim.HybridState.barrier",
		},
		// Mutations hidden behind method calls — the PR 8 race was a
		// mid-window PacketDone from a shard callback.
		BarrierMutMethods: []string{
			Module + "/internal/hybrid.Engine.Tick",
			Module + "/internal/hybrid.Engine.PacketDone",
			Module + "/internal/hybrid.Engine.StartFlow",
			Module + "/internal/hybrid.Engine.MarkAll",
		},
		Allow: []AllowEntry{
			{
				Check: "determinism",
				Pkg:   Module + "/internal/exp",
				File:  "exp.go",
				Func:  "forEachParallel",
				Reason: "the parallel experiment runner: each run owns an independent Network and RNG, " +
					"so cross-run goroutines cannot reorder events within a run",
			},
			{
				Check: "determinism",
				Pkg:   Module + "/internal/obs",
				File:  "server.go",
				Reason: "the live introspection endpoint serves HTTP while the simulation runs; " +
					"it is wall-clock concurrent by design and touches no simulation state",
			},
			{
				Check: "determinism",
				Pkg:   Module + "/internal/sweep",
				File:  "sweep.go",
				Func:  "run",
				Reason: "the branch fan-out: each branch restores an independent World (own Networks, " +
					"RNGs, event queues) and writes only its own result slot, so concurrency cannot " +
					"reorder events within a branch — TestParallelMatchesSerial proves it",
			},
			{
				Check: "determinism",
				Pkg:   Module + "/internal/psim",
				File:  "sync.go",
				Reason: "the conservative-sync coordinator: shard goroutines are barrier-isolated " +
					"(phases alternate over channels, so no two goroutines touch simulation state " +
					"concurrently) and TestGOMAXPROCSDeterminism proves interleaving is unobservable",
			},
		},
	}
}

// funcKey renders an "importpath.Func" / "importpath.Type.Method" matcher
// key. See Config.HotRoots for the grammar.
func funcKey(pkgPath, typeName, funcName string) string {
	if typeName == "" {
		return pkgPath + "." + funcName
	}
	return pkgPath + "." + typeName + "." + funcName
}

// typeKey renders the "importpath.TypeName" form used by QueueTypes and
// TracerTypes.
func typeKey(pkgPath, typeName string) string {
	return pkgPath + "." + typeName
}
