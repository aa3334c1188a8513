package codec

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/bits"
)

// rows holds each distinct row one Load reads through F64sPacked once: a
// list whose bytes, and so Float64bits (NaN payloads, zero signs), equal an
// earlier one's comes back as that row. Storage blocks are taken on misses,
// at most rowBlock cells and the cells read so far; a row never moves. The
// table probes linearly. A slot is 0 or tag<<44 | block<<22 | start<<11 |
// length, the tag being the row hash's top 20 bits: a probe reads a row only
// on a tag match, and the tag's top bits are the home slot, so growing reads
// none. Past 3·2¹⁸ rows, or too long a row, a row gets a slice of its own.
type rows struct {
	blocks  [][]float64
	slots   []uint64
	n       int    // slots in use
	shift   int    // a tag shifted right this far is its home slot
	scratch []byte // a row's encoding, on a big-endian host
}

const rowBlock = 1 << 10 // cells in one block of row storage, at most

// rowSeed keys the table's hash; no result depends on its value.
var rowSeed = maphash.MakeSeed()

// intern returns the row src encodes, decoded on first sight; read is the
// stream's bytes read so far.
func (t *rows) intern(src []byte, read int) []float64 {
	n := len(src) / 8
	if n == 0 || n >= 1<<11 || len(t.blocks) >= 1<<22 || t.n >= 3<<18 {
		return decodeF64s(make([]float64, n), src)
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	tag := maphash.Bytes(rowSeed, src) >> 44
	i := int(tag >> t.shift)
	for ; t.slots[i] != 0; i = (i + 1) & (len(t.slots) - 1) {
		if s := t.slots[i]; s>>44 == tag && string(t.bytes(t.row(s))) == string(src) {
			return t.row(s)
		}
	}
	b := len(t.blocks) - 1
	if b < 0 || cap(t.blocks[b])-len(t.blocks[b]) < n {
		t.blocks = append(t.blocks, make([]float64, 0, max(n, min(rowBlock, read/8))))
		b++
	}
	at := len(t.blocks[b])
	t.blocks[b] = t.blocks[b][:at+n]
	t.slots[i] = tag<<44 | uint64(b)<<22 | uint64(at)<<11 | uint64(n)
	t.n++
	return decodeF64s(t.row(t.slots[i]), src)
}

// row returns the row slot s names, its capacity its length.
func (t *rows) row(s uint64) []float64 {
	at, n := s>>11&(1<<11-1), s&(1<<11-1)
	return t.blocks[s>>22&(1<<22-1)][at : at+n : at+n]
}

// bytes returns row's encoding: on a little-endian host its own memory.
func (t *rows) bytes(row []float64) []byte {
	if littleEndian {
		return f64Bytes(row)
	}
	t.scratch = t.scratch[:0]
	for _, x := range row {
		t.scratch = binary.LittleEndian.AppendUint64(t.scratch, math.Float64bits(x))
	}
	return t.scratch
}

// grow doubles the table, to 16 slots at first, and moves every slot.
func (t *rows) grow() {
	old := t.slots
	t.slots = make([]uint64, max(16, 2*len(old)))
	t.shift = 20 - bits.Len(uint(len(t.slots)-1))
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := int(s >> 44 >> t.shift)
		for t.slots[i] != 0 {
			i = (i + 1) & (len(t.slots) - 1)
		}
		t.slots[i] = s
	}
}
