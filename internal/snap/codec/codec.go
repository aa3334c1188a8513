// Package codec is the versioned binary encoding underneath snapshot
// files (internal/snap): unsigned LEB128 varints, zigzag signed varints,
// IEEE-754 float64 bits, length-prefixed byte strings, and named section
// tags, wrapped in a magic/version header and an IEEE CRC-32 trailer.
//
// The codec is deliberately dependency-free so every engine package
// (eventq, netsim, dcqcn, tcp, rl, acc, stats, hybrid, psim) can list its
// state for a Visitor (visitor.go) without import cycles.
//
// Error handling is sticky on the read side: the first malformed field
// latches Reader.Err and every later accessor returns a zero value, so
// restore code can decode a whole section and check the error once.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// Magic identifies a snapshot byte stream.
const Magic = "ACCSNAP\x01"

// Version is the current snapshot format version. Readers refuse streams
// with a newer major version; the version is available to restore code so
// future minor revisions can keep decoding old streams.
const Version uint16 = 1

// Writer accumulates a snapshot byte stream.
type Writer struct {
	buf []byte
}

// NewWriter starts a stream with the magic and format version.
func NewWriter() *Writer { return NewWriterSize(4096) }

// NewWriterSize is NewWriter with room for size bytes before the stream
// first grows, for a caller that knows about how long it will be.
func NewWriterSize(size int) *Writer {
	w := &Writer{buf: make([]byte, 0, max(size, 4096))}
	w.buf = append(w.buf, Magic...)
	w.U64(uint64(Version))
	return w
}

// Finish appends the CRC-32 trailer and returns the complete stream.
// The Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	sum := crc32.ChecksumIEEE(w.buf)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	w.buf = append(w.buf, tail[:]...)
	return w.buf
}

// Len returns the number of bytes written so far (header included).
func (w *Writer) Len() int { return len(w.buf) }

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

// I64 writes a zigzag-encoded signed varint.
func (w *Writer) I64(v int64) { w.U64(uint64(v<<1) ^ uint64(v>>63)) }

// Int writes an int as a signed varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// F64 writes a float64 as its IEEE-754 bit pattern (exact round trip).
func (w *Writer) F64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.buf = append(w.buf, b[:]...)
}

// Bytes writes a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Tag writes a named section marker. Readers consume it with Expect,
// which turns any encode/decode skew into an immediate, located error
// instead of silently misaligned fields.
func (w *Writer) Tag(name string) { w.String(name) }

// F64s writes a length-prefixed []float64, each value as F64 writes it.
// On a little-endian host that is the list's own memory, so it is appended
// as one block.
func (w *Writer) F64s(xs []float64) {
	w.U64(uint64(len(xs)))
	if littleEndian {
		w.buf = append(w.buf, f64Bytes(xs)...)
		return
	}
	for _, x := range xs {
		w.F64(x)
	}
}

// littleEndian reports whether a float64's memory is its F64 encoding.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes returns the memory of xs as bytes.
func f64Bytes(xs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs))
}

// Reader decodes a snapshot byte stream produced by Writer.
type Reader struct {
	buf []byte
	pos int
	err error

	// Version is the format version of the stream being decoded.
	Version uint16
}

// NewReader validates the magic, version, and CRC-32 trailer of data and
// returns a reader positioned after the header.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < len(Magic)+4 {
		return nil, fmt.Errorf("snapshot: truncated stream (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic (not a snapshot file)")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("snapshot: checksum mismatch (file corrupt): got %08x want %08x", got, want)
	}
	r := &Reader{buf: body, pos: len(Magic)}
	v := r.U64()
	if r.err != nil {
		return nil, r.err
	}
	if uint16(v) > Version {
		return nil, fmt.Errorf("snapshot: format version %d is newer than supported %d", v, Version)
	}
	r.Version = uint16(v)
	return r, nil
}

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail latches a caller-detected restore error (state inconsistency rather
// than malformed bytes) so it surfaces through the same sticky-error path.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format+" at offset %d", append(args, r.pos)...)
	}
}

// U64 reads an unsigned varint: one of up to 8 bytes, as nearly all are,
// in one word without a branch per byte (a one-byte test first costs more
// than it saves on a snapshot's mix of lengths), or else byte by byte.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if rest := r.buf[r.pos:]; len(rest) >= 8 {
		// Find the first byte with its high bit clear, drop the bytes after
		// it, and pack the 7-bit groups down pairwise.
		x := binary.LittleEndian.Uint64(rest)
		if stop := ^x & 0x8080808080808080; stop != 0 {
			r.pos += bits.TrailingZeros64(stop)/8 + 1
			x &= (stop ^ (stop - 1)) & 0x7f7f7f7f7f7f7f7f
			x = x&0x007f007f007f007f | x>>1&0x3f803f803f803f80
			x = x&0x00003fff00003fff | x>>2&0x0fffc0000fffc000
			return x&0x000000000fffffff | x>>4&0x00fffffff0000000
		}
	}
	var v uint64
	var shift uint
	for {
		if r.pos >= len(r.buf) {
			r.fail("truncated varint")
			return 0
		}
		b := r.buf[r.pos]
		r.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
		if shift >= 64 {
			r.fail("varint overflow")
			return 0
		}
	}
}

// I64 reads a zigzag-encoded signed varint.
func (r *Reader) I64() int64 {
	u := r.U64()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads an int written with Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.buf) {
		r.fail("truncated bool")
		return false
	}
	b := r.buf[r.pos]
	r.pos++
	if b > 1 {
		r.fail("invalid bool byte %d", b)
		return false
	}
	return b == 1
}

// F64 reads a float64.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.buf) {
		r.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v
}

// Bytes reads a length-prefixed byte string. The returned slice aliases
// the input buffer; callers that keep it must copy.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail("byte string length %d exceeds remaining %d", n, len(r.buf)-r.pos)
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Expect consumes a section tag and errors unless it matches name.
func (r *Reader) Expect(name string) {
	got := r.String()
	if r.err == nil && got != name {
		r.fail("section tag mismatch: got %q want %q", got, name)
	}
}

// F64s reads a length-prefixed []float64 into a slice of its own.
func (r *Reader) F64s() []float64 { return r.F64sInto([]float64{}) }

// F64sInto reads a length-prefixed []float64 into dst's backing from its
// start, whatever dst's length, and returns the list: a restore decodes a
// tensor row in place. A list longer than dst's capacity gets a backing of
// its own. The length is checked once against the bytes remaining — so a
// hostile prefix can size nothing beyond what the stream still holds — and
// the cells are then copied as one block on a little-endian host, decoded
// in one straight loop elsewhere. On error dst comes back as it went in.
func (r *Reader) F64sInto(dst []float64) []float64 {
	src := r.cells()
	if r.err != nil {
		return dst
	}
	return decodeF64s(slices.Grow(dst[:0], len(src)/8)[:len(src)/8], src)
}

// cells reads a length-prefixed []float64's cells as bytes of the stream,
// or latches an error when the length exceeds what the stream still holds.
func (r *Reader) cells() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos)/8 {
		r.fail("float64 slice length %d exceeds remaining bytes", n)
		return nil
	}
	src := r.buf[r.pos : r.pos+8*int(n)]
	r.pos += len(src)
	return src
}

// decodeF64s decodes src, the bytes of len(out) cells, into out; returns out.
func decodeF64s(out []float64, src []byte) []float64 {
	if littleEndian {
		copy(f64Bytes(out), src)
	} else {
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
	return out
}

// Remaining returns how many bytes of the stream are still unread: the
// bound restore code holds a saved element count to before sizing
// anything from it.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }
