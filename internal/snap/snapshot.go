package snap

// The snapshot stream layout (after the codec's magic/version header),
// each section one state walk that both saves and restores it:
//
//	"snap-world"
//	  "scenario"     — the Scenario, so Restore rebuilds from the stream alone
//	  "psim"         — barrier clock + every shard's network (internal/psim)
//	  hybrid flag    — fidelity cross-check against the applied plan
//	  ["psim-hybrid"]— fast-forward engine + hybrid bookkeeping
//	  "applied"      — live transports + completion table
//	  "sampler"      — goodput series
//	  ACC count, ["acc-system"]... — per-shard deployments, shard order
//
// plus the codec's CRC-32 trailer. Restore ordering is load-bearing and
// documented on Restore.

import (
	"fmt"
	"os"

	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/snap/codec"
)

// state visits the scenario section.
func (sc *Scenario) state(v *codec.Visitor) {
	v.Tag("scenario")
	v.Int(&sc.NLeaf)
	v.Int(&sc.HostsPerLeaf)
	v.Int(&sc.NSpine)
	v.Int(&sc.Shards)
	v.I64(&sc.Seed)
	v.Int(&sc.Flows)
	v.I64(&sc.MaxBytes)
	codec.Int64(v, &sc.Spread)
	v.Bool(&sc.MixTCP)
	v.Int(&sc.FaultLinks)
	codec.Int64(v, &sc.MTBF)
	codec.Int64(v, &sc.MTTR)
	v.I64(&sc.FaultSeed)
	codec.Int64(v, &sc.Horizon)
	v.String(&sc.Fidelity)
	wred := sc.WRED != nil
	if v.Bool(&wred); wred && v.Reading() {
		sc.WRED = &red.Config{}
	}
	if wred {
		sc.WRED.State(v)
	}
	v.Bool(&sc.ACC)
	codec.Int64(v, &sc.SamplePeriod)
}

// header visits the stream header: the world tag and the scenario.
func header(v *codec.Visitor, sc *Scenario) error {
	v.Tag("snap-world")
	sc.state(v)
	return v.Err()
}

// state visits everything of the world after its scenario.
func (w *World) state(v *codec.Visitor) {
	w.E.State(v)
	if v.Reading() && v.Err() == nil {
		w.App.RestorePending()
	}
	w.App.State(v, w.E)
	w.Smp.State(v)
	n := len(w.ACC)
	if v.Int(&n); n != len(w.ACC) {
		v.Fail("snap: stream has %d ACC deployments, world has %d", n, len(w.ACC))
	}
	for _, s := range w.ACC {
		s.State(v)
	}
}

// Snapshot captures the world's complete dynamic state. Call with the
// engine quiescent: after Run returned, or from a barrier hook. The
// returned stream is self-contained (it embeds the Scenario) and
// CRC-protected.
func (w *World) Snapshot() []byte {
	enc := codec.NewWriterSize(w.imageLen)
	v := codec.Save(enc)
	header(v, &w.Sc)
	w.state(v)
	img := enc.Finish()
	w.imageLen = len(img)
	return img
}

// Restore rebuilds the world a snapshot was taken from and overlays the
// saved state, returning a world that continues bit-identically to the
// uninterrupted run. The overlay order is load-bearing:
//
//  1. Build — reconstructs every object, closure, and routing table; the
//     hybrid apply path starts due flows synchronously, and ACC arms its
//     tick timers, exactly as the original construction did.
//  2. Engine.State — clears every rebuilt queue, restores clocks,
//     counters, RNG draw positions, buffers, and in-flight packets.
//  3. Applied.RestorePending — re-arms each plan start cursor at its first
//     start not before the restored clock, at the slot Build reserved, and
//     re-inserts pending fault handles (rebuilt with their original slots).
//  4. Applied.State — overlays the hybrid fast-forward engine and
//     re-binds flow callbacks (hybrid worlds only; first, so mid-window
//     completion marks land on restored bookkeeping), then discards
//     construction-time transports, rebuilds the live ones, and re-parks
//     NIC waiters.
//  5. Sampler and ACC overlays — series, agents, optimizer state, and
//     timer re-arming onto the restored queues.
func Restore(data []byte) (*World, error) {
	r, err := codec.NewReader(data)
	if err != nil {
		return nil, err
	}
	v := codec.Load(r)
	var sc Scenario
	if err := header(v, &sc); err != nil {
		return nil, err
	}
	w, err := Build(sc)
	if err != nil {
		return nil, err
	}
	if w.state(v); r.Err() != nil {
		return nil, r.Err()
	}
	w.imageLen = len(data)
	return w, nil
}

// Fork restores a snapshot and applies a branch variant at the restored
// instant: the warm-start primitive. A forked branch is bit-identical to
// a cold run of the same scenario that applied the same variant at the
// same virtual time.
func Fork(data []byte, v Variant) (*World, error) {
	w, err := Restore(data)
	if err != nil {
		return nil, err
	}
	if err := w.ApplyVariant(v); err != nil {
		return nil, err
	}
	return w, nil
}

// WriteFile writes a snapshot stream to path.
func WriteFile(path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	return nil
}

// ReadFile reads a snapshot file and validates its header, CRC trailer,
// and embedded scenario without building anything — the preflight the
// CLIs run before committing to a resume.
func ReadFile(path string) ([]byte, Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Scenario{}, fmt.Errorf("snap: %w", err)
	}
	sc, err := Peek(data)
	if err != nil {
		return nil, Scenario{}, fmt.Errorf("snap: %s: %w", path, err)
	}
	return data, sc, nil
}

// Peek decodes just the scenario header of a snapshot stream.
func Peek(data []byte) (Scenario, error) {
	r, err := codec.NewReader(data)
	if err != nil {
		return Scenario{}, err
	}
	var sc Scenario
	if err := header(codec.Load(r), &sc); err != nil {
		return sc, err
	}
	return sc, sc.Validate()
}
