package rl_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/snap/codec"
)

func randTransition(rng *rand.Rand, stateDim, numActions int) rl.Transition {
	vec := func() []float64 {
		v := make([]float64, stateDim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	return rl.Transition{
		State:    vec(),
		Action:   rng.Intn(numActions),
		Reward:   rng.NormFloat64(),
		Next:     vec(),
		Terminal: rng.Intn(8) == 0,
	}
}

// TestMLPSnapshotRoundTrip: encode∘decode identity for a trained network,
// including the full Adam state.
func TestMLPSnapshotRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := rl.NewMLP([]int{4, 16, 8, 3}, rng)
		for step := 0; step < 10; step++ {
			batch := make([]rl.Sample, 8)
			for i := range batch {
				x := make([]float64, 4)
				for j := range x {
					x[j] = rng.NormFloat64()
				}
				batch[i] = rl.Sample{X: x, Action: rng.Intn(3), Target: rng.NormFloat64()}
			}
			m.TrainBatch(batch, 1e-3)
		}

		w := codec.NewWriter()
		m.State(codec.Save(w))
		img := w.Finish()

		r, err := codec.NewReader(img)
		if err != nil {
			t.Fatalf("seed %d: NewReader: %v", seed, err)
		}
		// Overlay onto a network of the same shape and other weights.
		m2 := rl.NewMLP([]int{4, 16, 8, 3}, rand.New(rand.NewSource(seed+1000)))
		if m2.State(codec.Load(r)); r.Err() != nil {
			t.Fatalf("seed %d: restore: %v", seed, r.Err())
		}

		w2 := codec.NewWriter()
		m2.State(codec.Save(w2))
		if img2 := w2.Finish(); !bytes.Equal(img, img2) {
			t.Fatalf("seed %d: save∘restore∘save changed bytes", seed)
		}
	}
}

// TestReplaySnapshotRoundTrip covers the ring buffer in every phase:
// empty, partially filled, and wrapped.
func TestReplaySnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, adds := range []int{0, 7, 16, 41} {
		rp := rl.NewReplay(16)
		for i := 0; i < adds; i++ {
			rp.Add(randTransition(rng, 3, 4))
		}
		w := codec.NewWriter()
		rp.State(codec.Save(w))
		img := w.Finish()

		r, err := codec.NewReader(img)
		if err != nil {
			t.Fatalf("adds=%d: NewReader: %v", adds, err)
		}
		rp2 := rl.NewReplay(16)
		rp2.State(codec.Load(r))
		if r.Err() != nil {
			t.Fatalf("adds=%d: restore: %v", adds, r.Err())
		}
		if rp2.Len() != rp.Len() {
			t.Fatalf("adds=%d: restored length %d, want %d", adds, rp2.Len(), rp.Len())
		}
		w2 := codec.NewWriter()
		rp2.State(codec.Save(w2))
		if img2 := w2.Finish(); !bytes.Equal(img, img2) {
			t.Fatalf("adds=%d: save∘restore∘save changed bytes", adds)
		}
	}
}

// TestAgentSnapshotRoundTrip: the whole agent — both networks, optimizer
// state, exploration schedule, replay memory — survives a round trip
// byte-identically when overlaid on a freshly constructed agent.
func TestAgentSnapshotRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cfg := rl.DefaultAgentConfig(6, 4)
		rng := rand.New(rand.NewSource(seed))
		a := rl.NewAgent(cfg, rng)
		for i := 0; i < 200; i++ {
			a.Observe(randTransition(rng, 6, 4))
		}
		for i := 0; i < 20; i++ {
			a.TrainStep(rng)
		}

		w := codec.NewWriter()
		a.SaveState(w)
		img := w.Finish()

		// Overlay onto a fresh agent built with a different init RNG: every
		// restored field must come from the stream, not the construction.
		a2 := rl.NewAgent(cfg, rand.New(rand.NewSource(seed+1000)))
		r, err := codec.NewReader(img)
		if err != nil {
			t.Fatalf("seed %d: NewReader: %v", seed, err)
		}
		a2.RestoreState(r)
		if r.Err() != nil {
			t.Fatalf("seed %d: RestoreState: %v", seed, r.Err())
		}
		if a2.Epsilon() != a.Epsilon() || a2.TrainSteps() != a.TrainSteps() {
			t.Fatalf("seed %d: eps/steps (%v, %d) != (%v, %d)",
				seed, a2.Epsilon(), a2.TrainSteps(), a.Epsilon(), a.TrainSteps())
		}
		w2 := codec.NewWriter()
		a2.SaveState(w2)
		if img2 := w2.Finish(); !bytes.Equal(img, img2) {
			t.Fatalf("seed %d: save∘restore∘save changed bytes", seed)
		}
	}
}

// FuzzAgentRestore feeds RestoreState images no SaveState wrote. The fuzzer
// mutates the body of a valid agent image; the harness frames each mutation
// behind a correct checksum, as an adversary would, so the decoders see it.
// Every input must either restore — and then save again without trouble —
// or latch an error: no panic, and no allocation beyond a small multiple of
// the input's length, whatever capacities and counts it claims.
func FuzzAgentRestore(f *testing.F) {
	cfg := rl.DefaultAgentConfig(4, 3)
	cfg.Hidden = []int{6}
	cfg.BatchSize = 4
	cfg.ReplayCap = 16
	head := codec.NewWriter().Len()
	for _, adds := range []int{0, 9, 40} { // empty, filling, wrapped
		rng := rand.New(rand.NewSource(int64(adds)))
		a := rl.NewAgent(cfg, rng)
		for i := 0; i < adds; i++ {
			a.Observe(randTransition(rng, 4, 3))
			a.TrainStep(rng)
		}
		w := codec.NewWriter()
		a.SaveState(w)
		img := w.Finish()
		f.Add(img[head : len(img)-4])
	}
	// Images whose rows a restore interns: every row equal, which it holds
	// as one row; rows apart only in a NaN payload or a zero's sign, which
	// it must hold apart; and each of the two with its first row's length
	// prefix made larger than the bytes left.
	nan1, nan2, negZero := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002), math.Copysign(0, -1)
	for _, vals := range [][]float64{{0.5}, {nan1, nan2, 0, negZero}} {
		a := rl.NewAgent(cfg, rand.New(rand.NewSource(1)))
		for i := range cfg.ReplayCap {
			row := func(j int) []float64 {
				x := vals[j%len(vals)]
				return []float64{1, x, x, 1}
			}
			a.Observe(rl.Transition{State: row(i), Action: i % 3, Next: row(i + 1)})
		}
		w := codec.NewWriter()
		a.SaveState(w)
		img := w.Finish()
		r, err := codec.NewReader(img)
		if err != nil {
			f.Fatal(err)
		}
		b := rl.NewAgent(cfg, rand.New(rand.NewSource(2)))
		if b.RestoreState(r); r.Err() != nil {
			f.Fatal(r.Err())
		}
		rows := map[*float64]bool{}
		for i := range b.Memory.Len() {
			rows[&b.Memory.At(i).State[0]] = true
			rows[&b.Memory.At(i).Next[0]] = true
		}
		if len(rows) != len(vals) {
			f.Fatalf("a restore holds %d rows of %d distinct values", len(rows), len(vals))
		}
		body := img[head : len(img)-4]
		f.Add(body)
		// After the replay tag: capacity, ring position, wrapped flag and
		// length, then the first State's length prefix.
		at := bytes.Index(body, []byte("\x06replay")) + len("\x06replay")
		for range 4 {
			_, n := binary.Uvarint(body[at:])
			at += n
		}
		if body[at] != 4 {
			f.Fatalf("byte %d of the image is %d, not the first row's length", at, body[at])
		}
		f.Add(slices.Concat(body[:at], binary.AppendUvarint(nil, 1<<40), body[at+1:]))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		stream := append([]byte(codec.Magic), byte(codec.Version))
		stream = append(stream, body...)
		stream = binary.LittleEndian.AppendUint32(stream, crc32.ChecksumIEEE(stream))
		// restore overlays the stream on a fresh agent and reports what the
		// overlay allocated and how it ended.
		restore := func() (grew uint64, a *rl.Agent, err error) {
			r, err := codec.NewReader(stream)
			if err != nil {
				t.Fatalf("the harness framed a stream NewReader refuses: %v", err)
			}
			a = rl.NewAgent(cfg, rand.New(rand.NewSource(1)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a.RestoreState(r)
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc, a, r.Err()
		}
		// A transition is 72 bytes of header for the 12 its encoding can be
		// as short as; decoded floats cost what they occupy in the stream.
		// TotalAlloc is the whole process's, the fuzz worker's own goroutines
		// included, so an overlay over the limit gets two more chances: one
		// that really is over it is over it every time.
		limit := uint64(16*len(body) + 4096)
		grew, a, err := restore()
		for try := 0; grew > limit && try < 2; try++ {
			again, _, _ := restore()
			grew = min(grew, again)
		}
		if grew > limit {
			t.Fatalf("restoring a %d-byte body allocated %d bytes, limit %d", len(body), grew, limit)
		}
		if err == nil {
			a.SaveState(codec.NewWriter())
		}
	})
}
