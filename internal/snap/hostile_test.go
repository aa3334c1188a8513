package snap

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/accnet/acc/internal/hybrid"
	"github.com/accnet/acc/internal/psim"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
	"github.com/accnet/acc/internal/stats"
	"github.com/accnet/acc/internal/tcp"
)

// seal recomputes the CRC-32 trailer of a stream whose body (magic and
// version included) was edited: the checksum guards against accidents, not
// against an adversary, so a hostile image carries a valid one.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// body strips a finished stream's CRC-32 trailer.
func body(stream []byte) []byte { return stream[: len(stream)-4 : len(stream)-4] }

// leastAlloc returns the least TotalAlloc growth over a few calls of fn:
// TotalAlloc is process-wide, so the least growth is fn's own.
func leastAlloc(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// completedTCP returns the image of a fully acked TCP sender and of its
// completed receiver, taken from a run to the horizon. Neither has a map
// entry or a pending timer left, so each image ends with its map's count.
func completedTCP(t *testing.T) (sender, receiver []byte) {
	t.Helper()
	sc := testScenario(1, "packet")
	sc.FaultLinks = 0
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sc.Horizon)
	for i := range w.App.Plan.Flows {
		tx, rx := w.App.TCPSend[i], w.App.TCPRecv[i]
		if tx == nil || !tx.Acked() || rx == nil || !rx.Done() {
			continue
		}
		ws, wr := codec.NewWriter(), codec.NewWriter()
		tx.State(codec.Save(ws))
		rx.State(codec.Save(wr))
		return body(ws.Finish()), body(wr.Finish())
	}
	t.Fatal("no TCP flow completed: the scenario exercises nothing")
	return nil, nil
}

// TestHostileCountsAllocateNothing: a list count in an image is outside
// input behind a valid checksum. One that promises more elements than the
// bytes left could hold must fail the restore before anything is sized
// from it, at every site that sizes from a count — not a fatal out-of-memory
// error, not a slice or map grown for the count, not a loop that keeps
// going after the reader failed.
func TestHostileCountsAllocateNothing(t *testing.T) {
	const n = 1 << 20
	count := func(prefix []byte, n int) []byte {
		return seal(binary.AppendUvarint(prefix, uint64(n)<<1)) // a zigzag Int
	}
	header := func(tag string) []byte {
		w := codec.NewWriter()
		w.Tag(tag)
		return body(w.Finish())
	}
	sender, receiver := completedTCP(t)
	if sender[len(sender)-2] != 0 || sender[len(sender)-1] != 0 {
		t.Fatal("the completed sender still saves send times or a pending timer")
	}
	if receiver[len(receiver)-1] != 0 {
		t.Fatal("the completed receiver still saves out-of-order segments")
	}
	world, err := Build(testScenario(1, "hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	w := codec.NewWriter()
	w.Tag("hflow")
	w.U64(1)
	w.I64(1000)
	w.Int(0)
	w.I64(0)
	flow := body(w.Finish())

	for _, tc := range []struct {
		name    string
		img     []byte
		restore func(v *codec.Visitor)
	}{
		// The 27-byte stream: the series tag and a count of 2^45.
		{"series", count(header("series"), 1<<45), func(v *codec.Visitor) {
			new(stats.Series).State(v)
		}},
		{"sampler", count(header("sampler"), n), func(v *codec.Visitor) {
			psim.NewSampler(nil, simtime.Microsecond).State(v)
		}},
		{"tcp sender send times", count(sender[:len(sender)-2], n), func(v *codec.Visitor) {
			tcp.RestoreSender(world.E.Shards[0].Net, world.E.Hosts[0][0], v)
		}},
		{"tcp receiver out-of-order segments", count(receiver[:len(receiver)-1], n), func(v *codec.Visitor) {
			tcp.RestoreReceiver(world.E.Hosts[0][0], nil, v)
		}},
		{"hybrid flow path", count(flow, n), func(v *codec.Visitor) {
			var f *hybrid.Flow
			world.Hyb.FlowState(v, &f)
		}},
	} {
		var err error
		grew := leastAlloc(func() {
			r, rerr := codec.NewReader(tc.img)
			if rerr != nil {
				t.Fatalf("%s: NewReader: %v", tc.name, rerr)
			}
			tc.restore(codec.Load(r))
			err = r.Err()
		})
		if err == nil {
			t.Errorf("%s: a count the %d-byte image cannot hold restored without an error", tc.name, len(tc.img))
		}
		if grew > 64<<10 {
			t.Errorf("%s: a hostile count allocated %d bytes", tc.name, grew)
		}
	}
}

// prewarmImage returns the image of a small packet world cut short right
// after the pool-prewarm hint closing the section named tag — "eventq" the
// event free list's, "endnodes" the packet pool's — with the hint set to
// hint. A hint sizes an allocation rather than counting anything in the
// image, so no Count bounds it.
func prewarmImage(tb testing.TB, tag string, hint int) []byte {
	tb.Helper()
	sc := testScenario(1, "packet")
	w, err := Build(sc)
	if err != nil {
		tb.Fatal(err)
	}
	w.Run(sc.Horizon / 2)
	img := body(w.Snapshot())
	w.Stop()
	i := bytes.Index(img, append([]byte{byte(len(tag))}, tag...))
	if i < 0 {
		tb.Fatalf("no %q section in the image", tag)
	}
	i += 1 + len(tag)
	if tag == "eventq" { // the clock, the sequence counter, the processed count
		for range 3 {
			_, n := binary.Uvarint(img[i:])
			i += n
		}
	}
	return seal(binary.AppendVarint(slices.Clone(img[:i]), int64(hint)))
}

// TestHostilePrewarmHintsAllocateLittle: an image that ends just after a
// prewarm hint of 2^16 must fail to restore without making 2^16 Events or
// Packets (4 MiB either way), because a restore prewarms no more objects
// than there are bytes left. The same image with a hint of zero is the
// baseline: both build the same world first.
func TestHostilePrewarmHintsAllocateLittle(t *testing.T) {
	for _, tag := range []string{"eventq", "endnodes"} {
		hostile, zero := prewarmImage(t, tag, 1<<16), prewarmImage(t, tag, 0)
		var err error
		grew := leastAlloc(func() { _, err = Restore(hostile) })
		base := leastAlloc(func() { Restore(zero) })
		if err == nil {
			t.Errorf("%s: an image cut short after its prewarm hint restored", tag)
		}
		if grew > base+256<<10 {
			t.Errorf("%s: a hint of 2^16 in a %d-byte image allocated %d bytes more than a hint of 0", tag, len(hostile), grew-base)
		}
	}
}

// small reports whether a scenario builds a world no bigger than the fuzz
// seeds' twice over. The scenario is the recipe of the world Restore
// builds, so what a larger one costs to build is the caller's to bound, not
// the decoder's.
func small(sc Scenario) bool {
	return sc.NLeaf <= 8 && sc.HostsPerLeaf <= 6 && sc.NSpine <= 4 &&
		sc.Flows <= 128 && sc.MaxBytes <= 1<<20 &&
		sc.Horizon <= simtime.Time(2*simtime.Millisecond) && sc.FaultLinks <= 4 &&
		(sc.FaultLinks == 0 || sc.MTBF >= simtime.Microsecond && sc.MTTR >= simtime.Microsecond)
}

// FuzzWorldRestore feeds Restore images no Snapshot wrote: the images of a
// small packet world and a small hybrid one (ACC on, mixed TCP and DCQCN)
// mutated by the fuzzer, behind a recomputed checksum. Each must restore,
// or fail with one error; none may panic.
func FuzzWorldRestore(f *testing.F) {
	for _, fidelity := range []string{"packet", "hybrid"} {
		sc := testScenario(1, fidelity)
		sc.ACC = true
		w, err := Build(sc)
		if err != nil {
			f.Fatal(err)
		}
		w.Run(sc.Horizon / 2)
		img := w.Snapshot()
		if _, err := Restore(img); err != nil {
			f.Fatalf("%s seed: %v", fidelity, err)
		}
		f.Add(body(img))
	}
	f.Add(body(prewarmImage(f, "endnodes", 1<<16)))
	for _, b := range experienceImages(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		img := seal(b)
		if sc, err := Peek(img); err != nil || !small(sc) {
			return
		}
		if _, err := Restore(img); err != nil && err.Error() == "" {
			t.Fatal("an empty error")
		}
	})
}

// experienceImages returns the bodies of images whose experience rows a
// restore interns: a small ACC world's with every replay row's cells set
// to one value, which a restore holds as one row; the same world's with
// each row's cells set to one of four values apart only in a NaN payload
// or a zero's sign, which it must hold as four; and the second with the
// first row's length prefix made larger than the bytes left.
func experienceImages(tb testing.TB) [][]byte {
	nan1, nan2, negZero := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002), math.Copysign(0, -1)
	var out [][]byte
	for _, vals := range [][]float64{{0.5}, {nan1, nan2, 0, negZero}} {
		sc := testScenario(1, "packet")
		sc.ACC = true
		w, err := Build(sc)
		if err != nil {
			tb.Fatal(err)
		}
		w.Run(sc.Horizon / 2)
		i := 0
		for _, s := range w.ACC {
			memories := []*rl.Replay{s.Global}
			for _, t := range s.Tuners {
				memories = append(memories, t.Agent.Memory)
			}
			for _, rp := range memories {
				for j := range rp.Len() {
					for _, row := range [][]float64{rp.At(j).State, rp.At(j).Next} {
						for k := range row {
							row[k] = vals[i%len(vals)]
						}
						i++
					}
				}
			}
		}
		img := w.Snapshot()
		restored, err := Restore(img)
		if err != nil {
			tb.Fatal(err)
		}
		if refs, rows, _ := experienceRows(restored); refs == 0 || rows != len(vals) {
			tb.Fatalf("a restore holds %d rows over %d references to %d distinct values", rows, refs, len(vals))
		}
		out = append(out, body(img))
	}
	// The first row: the first replay that holds any (the global one fills
	// only once agents exchange) has its capacity, ring position, wrapped
	// flag and length after its tag, then the first State's length prefix.
	b := out[len(out)-1]
	at := bytes.Index(b, []byte("\x0aacc-system"))
	for length := uint64(0); length == 0; {
		at += bytes.Index(b[at:], []byte("\x06replay")) + len("\x06replay")
		for range 4 {
			x, n := binary.Uvarint(b[at:])
			length, at = x, at+n
		}
	}
	if _, n := binary.Uvarint(b[at:]); n != 1 || b[at] == 0 {
		tb.Fatalf("byte %d of the image is %d, not a row's length", at, b[at])
	}
	long := slices.Concat(b[:at], binary.AppendUvarint(nil, 1<<40), b[at+1:])
	if _, err := Restore(seal(long)); err == nil || !strings.Contains(err.Error(), "exceeds remaining bytes") {
		tb.Fatalf("a row longer than the image restored with error %v", err)
	}
	return append(out, long)
}
