package codec

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"testing"
)

// seal frames a body (everything after the magic and version) the way
// Writer.Finish does, so a test can hand NewReader bytes no Writer would
// produce — a truncated stream, a hostile length prefix — behind a valid
// checksum: the CRC guards against accidents, not against an adversary.
func seal(body []byte) []byte {
	w := NewWriter()
	w.buf = append(w.buf, body...)
	return w.Finish()
}

var (
	u64s = []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1 << 32, math.MaxUint64}
	i64s = []int64{0, 1, -1, 63, -64, 64, -65, math.MaxInt64, math.MinInt64}
	f64s = []float64{0, math.Copysign(0, -1), 1.5, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8000000000123)} // a NaN with a payload
)

// TestRoundTrip: every primitive reads back exactly what was written —
// floats bit for bit — in sequence, and the stream ends where the reads do.
func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Tag("section")
	for _, v := range u64s {
		w.U64(v)
	}
	for _, v := range i64s {
		w.I64(v)
		w.Int(int(v))
	}
	w.Bool(true)
	w.Bool(false)
	for _, v := range f64s {
		w.F64(v)
	}
	w.Bytes([]byte{0, 1, 2, 0xff})
	w.Bytes(nil)
	w.String("héllo")
	w.String("")
	w.F64s(f64s)
	w.F64s(nil)
	w.F64s(f64s)     // read back in place
	w.F64s(f64s[:3]) // read back over a destination that holds cells
	w.F64s(f64s)     // read back into a backing too small for it
	stream := w.Finish()
	if w.Len() != len(stream) {
		t.Fatalf("Len %d after Finish, stream is %d bytes", w.Len(), len(stream))
	}

	r, err := NewReader(stream)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version != Version {
		t.Fatalf("Version %d, want %d", r.Version, Version)
	}
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d cells, want %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d]: %#x, want %#x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	r.Expect("section")
	for _, want := range u64s {
		if got := r.U64(); got != want {
			t.Fatalf("U64 %d, want %d", got, want)
		}
	}
	for _, want := range i64s {
		if got := r.I64(); got != want {
			t.Fatalf("I64 %d, want %d", got, want)
		}
		if got := r.Int(); got != int(want) {
			t.Fatalf("Int %d, want %d", got, want)
		}
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool pair did not read true, false")
	}
	for _, want := range f64s {
		sameBits("F64", []float64{r.F64()}, []float64{want})
	}
	if got := r.Bytes(); !slices.Equal(got, []byte{0, 1, 2, 0xff}) {
		t.Fatalf("Bytes %v", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("empty Bytes read %v", got)
	}
	if got := r.String(); got != "héllo" {
		t.Fatalf("String %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty String read %q", got)
	}
	sameBits("F64s", r.F64s(), f64s)
	if got := r.F64s(); got == nil || len(got) != 0 {
		t.Fatalf("empty F64s read %v, want an empty non-nil slice", got)
	}

	// In place: exactly the capacity offered, no new backing.
	row := make([]float64, len(f64s))
	got := r.F64sInto(row[:0])
	sameBits("F64sInto in place", got, f64s)
	if &got[0] != &row[0] {
		t.Fatal("F64sInto moved a list that fitted its destination")
	}
	// Over cells already there: the list starts at the backing's start.
	got = r.F64sInto(row)
	sameBits("F64sInto over held cells", got, f64s[:3])
	if &got[0] != &row[0] {
		t.Fatal("F64sInto moved a list that fitted its destination")
	}
	// Too small: a backing of its own, the destination untouched.
	small := []float64{42}
	sameBits("F64sInto grown", r.F64sInto(small), f64s)
	if small[0] != 42 {
		t.Fatal("F64sInto wrote into a destination too small for the list")
	}

	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left after reading everything written", r.Remaining())
	}
}

// TestTruncationLatchesOneError cuts a small stream at every offset. Each
// cut must surface as an error — from NewReader when the header is gone,
// from the reads otherwise — that is latched once: later reads return zero
// values, Fail does not replace it, and nothing panics.
func TestTruncationLatchesOneError(t *testing.T) {
	w := NewWriter()
	w.Tag("t")
	w.U64(300)
	w.I64(-300)
	w.Bool(true)
	w.F64(2.5)
	w.Bytes([]byte("abc"))
	w.F64s([]float64{1, 2})
	w.F64s([]float64{3})
	full := w.Finish()
	head := NewWriter().Len()

	for cut := 0; cut < len(full)-4; cut++ {
		var stream []byte
		if cut < head {
			stream = full[:cut] // not even a header: nothing to seal
		} else {
			stream = seal(full[head:cut])
		}
		r, err := NewReader(stream)
		if err != nil {
			continue
		}
		var first error
		step := func() {
			if first == nil {
				first = r.Err()
			} else if r.Err() != first {
				t.Fatalf("cut %d: error replaced: %v, then %v", cut, first, r.Err())
			}
		}
		r.Expect("t")
		step()
		u := r.U64()
		step()
		i := r.I64()
		step()
		b := r.Bool()
		step()
		f := r.F64()
		step()
		bs := r.Bytes()
		step()
		l1 := r.F64s()
		step()
		l2 := r.F64sInto(nil)
		step()
		if first == nil {
			t.Fatalf("cut %d of %d: every read succeeded on a truncated stream", cut, len(full)-4)
		}
		r.Fail("a later failure")
		step()
		if r.U64() != 0 || r.Int() != 0 || r.Bool() || r.F64() != 0 || r.Bytes() != nil || r.String() != "" || len(r.F64s()) != 0 {
			t.Fatalf("cut %d: reads after the error returned data", cut)
		}
		// Whatever was read before the cut is what was written.
		if (u != 0 && u != 300) || (i != 0 && i != -300) || (f != 0 && f != 2.5) ||
			(bs != nil && string(bs) != "abc") || (len(l1) != 0 && !slices.Equal(l1, []float64{1, 2})) || len(l2) != 0 {
			t.Fatalf("cut %d: partial data %v %v %v %v %q %v %v", cut, u, i, b, f, bs, l1, l2)
		}
	}
	if _, err := NewReader(full); err != nil {
		t.Fatalf("the uncut stream: %v", err)
	}
}

// TestHostileLengthAllocatesNothing: a length prefix is outside input. One
// that promises more than the stream holds is refused before anything is
// sized from it, for every list primitive — the cost of a hostile image is
// bounded by its size.
func TestHostileLengthAllocatesNothing(t *testing.T) {
	var tail [64]byte
	for _, n := range []uint64{uint64(len(tail)) + 1, 1 << 20, 1 << 40, math.MaxUint64 / 8, math.MaxUint64} {
		var prefix [binary.MaxVarintLen64]byte
		stream := seal(append(prefix[:binary.PutUvarint(prefix[:], n)], tail[:]...))
		into := make([]float64, 0, 4)
		for name, read := range map[string]func(*Reader) int{
			"Bytes":    func(r *Reader) int { return len(r.Bytes()) },
			"String":   func(r *Reader) int { return len(r.String()) },
			"F64s":     func(r *Reader) int { return len(r.F64s()) },
			"F64sInto": func(r *Reader) int { return len(r.F64sInto(into)) },
		} {
			// The error value itself is all that may be allocated. TotalAlloc
			// is process-wide, so another goroutine can allocate inside one
			// read's window; the least growth over a few reads is the read's own.
			grew := uint64(math.MaxUint64)
			for range 5 {
				r, err := NewReader(stream)
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				got := read(r)
				runtime.ReadMemStats(&after)
				if got != 0 || r.Err() == nil {
					t.Fatalf("%s with length %d over %d bytes: read %d elements, err %v", name, n, len(tail), got, r.Err())
				}
				grew = min(grew, after.TotalAlloc-before.TotalAlloc)
			}
			if grew > 1024 {
				t.Errorf("%s with length %d over %d bytes allocated %d bytes", name, n, len(tail), grew)
			}
		}
	}

	// The largest list the bytes can hold is decoded, and costs what it holds.
	w := NewWriter()
	w.F64s(make([]float64, 8))
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.F64sInto(nil); len(got) != 8 || r.Err() != nil {
		t.Fatalf("a list filling the stream: %d cells, err %v", len(got), r.Err())
	}
}

// TestHeaderChecks: NewReader refuses what is not a snapshot, what was
// damaged, and what a newer writer produced.
func TestHeaderChecks(t *testing.T) {
	good := seal(nil)
	if _, err := NewReader(good); err != nil {
		t.Fatal(err)
	}
	flipped := slices.Clone(good)
	flipped[len(Magic)] ^= 1
	notMagic := slices.Clone(good)
	notMagic[0] ^= 1
	newer := []byte(Magic)
	newer = binary.AppendUvarint(newer, uint64(Version)+1)
	newer = binary.LittleEndian.AppendUint32(newer, crc32.ChecksumIEEE(newer))
	for name, data := range map[string][]byte{
		"empty": nil, "short": good[:len(Magic)], "bad magic": notMagic, "bad crc": flipped, "newer version": newer,
	} {
		if _, err := NewReader(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	r, _ := NewReader(seal([]byte{2}))
	if r.Bool(); r.Err() == nil {
		t.Error("bool byte 2 accepted")
	}
	r, _ = NewReader(seal([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}))
	if r.U64(); r.Err() == nil {
		t.Error("11-byte varint accepted")
	}
	w := NewWriter()
	w.Tag("a")
	r, _ = NewReader(w.Finish())
	if r.Expect("b"); r.Err() == nil {
		t.Error("tag mismatch accepted")
	}
}

// refReader decodes the format one byte at a time, as it is defined: the
// oracle FuzzReader holds Reader's fast paths (varints read a word at a
// time, float rows as one block) to.
type refReader struct {
	buf []byte
	pos int
	bad bool
}

func (r *refReader) u64() uint64 {
	var v uint64
	for shift := uint(0); !r.bad; shift += 7 {
		if r.pos >= len(r.buf) || shift >= 64 {
			r.bad = true
			break
		}
		b := r.buf[r.pos]
		r.pos++
		if v |= uint64(b&0x7f) << shift; b < 0x80 {
			return v
		}
	}
	return 0
}

func (r *refReader) bool() bool {
	if r.bad || r.pos >= len(r.buf) || r.buf[r.pos] > 1 {
		r.bad = true
		return false
	}
	r.pos++
	return r.buf[r.pos-1] == 1
}

func (r *refReader) f64s() []uint64 {
	n := r.u64()
	if r.bad || n > uint64(len(r.buf)-r.pos)/8 {
		r.bad = true
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.buf[r.pos:])
		r.pos += 8
	}
	return out
}

// FuzzReader reads a fuzzed body with a fuzzed script of U64, Bool,
// F64sInto (into a destination of 0–2 cells) and
// Visitor.F64sPacked calls, and requires what refReader reads: the same
// values, floats bit for bit, and an error exactly when it fails, after
// which every read is zero. F64sPacked must also hand back one row for
// every list of the same bits and distinct rows for lists that differ in
// any bit, a NaN payload or the sign of a zero included. The body's 8-byte
// words, taken as floats, must also round-trip through Writer.F64s bit for
// bit, in the bytes F64 writes one at a time.
func FuzzReader(f *testing.F) {
	w := NewWriter()
	w.F64s([]float64{math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0x7ff0000000000001),
		math.Copysign(0, -1), math.Inf(1)}) // NaN payloads, a signalling NaN, −0
	f.Add(body(w.Finish()), []byte{2})
	f.Add(append(binary.AppendUvarint(nil, 5), make([]byte, 32)...), []byte{2 | 1<<2}) // a length past the bytes left, into a cell
	w = NewWriter()
	w.Bool(true)
	w.F64s(f64s) // a row at an odd offset in the stream, into a destination too small for it
	f.Add(body(w.Finish()), []byte{1, 2 | 1<<2, 2})
	var varints []byte
	for k := 1; k <= 10; k++ { // 1 and all ones in each of k bytes' 7-bit groups
		varints = binary.AppendUvarint(binary.AppendUvarint(varints, 1<<(7*k-7)), math.MaxUint64>>max(0, 64-7*k))
	}
	f.Add(varints, make([]byte, 20)) // every length, the last ones within 8 bytes of the end
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte{0, 0})
	w = NewWriter()
	for range 6 {
		w.F64s(f64s) // every row equal: one row for all six
	}
	f.Add(body(w.Finish()), []byte{3, 3, 3, 3, 3, 3})
	w = NewWriter()
	for _, bits := range []uint64{0x7ff8000000000001, 0x7ff8000000000002, 0, 1 << 63, 0x7ff8000000000001, 1 << 63} {
		w.F64s([]float64{1, math.Float64frombits(bits)}) // rows apart only in a NaN payload or a zero's sign
	}
	f.Add(body(w.Finish()), []byte{3, 3, 3, 3, 3, 3})
	f.Add(append(binary.AppendUvarint(nil, 1<<40), make([]byte, 32)...), []byte{3}) // a row length past the bytes left
	f.Fuzz(func(t *testing.T, in, script []byte) {
		r, err := NewReader(seal(in))
		if err != nil {
			t.Fatal(err)
		}
		ref := &refReader{buf: in}
		v := Load(r)
		packed := map[string][]float64{} // F64sPacked's rows so far, by bits
		for _, op := range script {
			switch op % 4 {
			case 0:
				if got, want := r.U64(), ref.u64(); got != want {
					t.Fatalf("U64 %d, want %d", got, want)
				}
			case 1:
				if got, want := r.Bool(), ref.bool(); got != want {
					t.Fatalf("Bool %v, want %v", got, want)
				}
			case 2:
				dst := make([]float64, int(op>>2)%3)
				got, want := r.F64sInto(dst), ref.f64s()
				if r.Err() != nil {
					if len(got) != len(dst) {
						t.Fatalf("F64sInto failed with %d cells, its destination held %d", len(got), len(dst))
					}
					got = nil
				}
				if len(got) != len(want) {
					t.Fatalf("F64sInto read %d cells, want %d", len(got), len(want))
				}
				if len(want) > 0 && len(want) <= len(dst) && &got[0] != &dst[0] {
					t.Fatal("F64sInto moved a list that fitted its destination")
				}
				for i := range want {
					if math.Float64bits(got[i]) != want[i] {
						t.Fatalf("F64sInto cell %d: %#x, want %#x", i, math.Float64bits(got[i]), want[i])
					}
				}
			case 3:
				var got []float64
				v.F64sPacked(&got)
				want := ref.f64s()
				if len(got) != len(want) || cap(got) != len(got) {
					t.Fatalf("F64sPacked read %d cells (capacity %d), want %d", len(got), cap(got), len(want))
				}
				key := make([]byte, 0, 8*len(want))
				for i := range want {
					if math.Float64bits(got[i]) != want[i] {
						t.Fatalf("F64sPacked cell %d: %#x, want %#x", i, math.Float64bits(got[i]), want[i])
					}
					key = binary.LittleEndian.AppendUint64(key, want[i])
				}
				if len(got) == 0 {
					break
				}
				if prev, ok := packed[string(key)]; ok && &prev[0] != &got[0] {
					t.Fatalf("F64sPacked read %d cells it had read before into a second row", len(got))
				}
				packed[string(key)] = got
				for k, row := range packed {
					if k != string(key) && &row[0] == &got[0] {
						t.Fatalf("F64sPacked handed lists of other bits one row")
					}
				}
			}
			if (r.Err() != nil) != ref.bad {
				t.Fatalf("reader error %v, oracle failed %v", r.Err(), ref.bad)
			}
		}

		xs := make([]float64, len(in)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
		}
		block, each := NewWriter(), NewWriter()
		block.F64s(xs)
		each.U64(uint64(len(xs)))
		for _, x := range xs {
			each.F64(x)
		}
		stream := block.Finish()
		if !slices.Equal(stream, each.Finish()) {
			t.Fatal("F64s wrote other bytes than F64 one value at a time")
		}
		r, err = NewReader(stream)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range r.F64s() {
			if math.Float64bits(x) != math.Float64bits(xs[i]) {
				t.Fatalf("cell %d round-tripped to %#x, want %#x", i, math.Float64bits(x), math.Float64bits(xs[i]))
			}
		}
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("round trip: err %v, %d bytes left", r.Err(), r.Remaining())
		}
	})
}

// body strips the magic, version and checksum from a stream: what seal
// frames again.
func body(stream []byte) []byte {
	return stream[len(Magic)+1 : len(stream)-4]
}
