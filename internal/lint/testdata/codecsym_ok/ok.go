// Package codecsym_ok exercises the full symmetric-pair surface the
// checker must accept without noise: helper-pair recursion, the
// presence-Bool optional idiom, decode-error early returns that fold the
// tail, length-prefixed loops, a prefix-only peek reader, and a float
// list read back into the caller's backing.
package codecsym_ok

// Writer and Reader are the fixture's own codec stream types; the test
// config points CodecWriterType/CodecReaderType at them.
type Writer struct{}

func (w *Writer) Tag(string)     {}
func (w *Writer) U64(uint64)     {}
func (w *Writer) I64(int64)      {}
func (w *Writer) Int(int)        {}
func (w *Writer) Bool(bool)      {}
func (w *Writer) F64(float64)    {}
func (w *Writer) F64s([]float64) {}

type Reader struct{ err error }

func (r *Reader) Expect(string) {}
func (r *Reader) U64() uint64   { return 0 }
func (r *Reader) I64() int64    { return 0 }
func (r *Reader) Int() int      { return 0 }
func (r *Reader) Bool() bool    { return false }
func (r *Reader) F64() float64  { return 0 }
func (r *Reader) Err() error    { return r.err }

func (r *Reader) F64sInto(dst []float64) []float64 { return dst }

// inner is serialized through a helper pair: codecsym aligns saveInner
// with loadInner by call position and verifies their bodies recursively.
type inner struct {
	a uint64
	b uint64
}

func saveInner(w *Writer, in *inner) {
	w.U64(in.a)
	w.U64(in.b)
}

func loadInner(r *Reader, in *inner) {
	in.a = r.U64()
	in.b = r.U64()
}

// outer composes every idiom: a presence Bool guarding an optional
// helper block, a decode-error early return on the load side (folding
// the tail), and a length-prefixed element loop.
type outer struct {
	id   int64
	on   bool
	in   inner
	hist []float64
}

func (o *outer) SaveState(w *Writer) {
	w.Tag("outer")
	w.I64(o.id)
	w.Bool(o.on)
	if o.on {
		saveInner(w, &o.in)
	}
	w.Int(len(o.hist))
	for _, v := range o.hist {
		w.F64(v)
	}
}

func (o *outer) RestoreState(r *Reader) error {
	r.Expect("outer")
	o.id = r.I64()
	o.on = r.Bool()
	if o.on {
		loadInner(r, &o.in)
	}
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	o.hist = o.hist[:0]
	for i := 0; i < n; i++ {
		o.hist = append(o.hist, r.F64())
	}
	return r.Err()
}

// peekOuter reads only the header of the "outer" record: prefix loads
// are legal — tools skim streams without consuming whole records.
func peekOuter(r *Reader) int64 {
	r.Expect("outer")
	return r.I64()
}

// matrix saves its rows as float lists and reads each back in place: the
// reader's F64sInto consumes exactly what the writer's F64s produced, so
// the two are the same stream kind.
type matrix struct {
	rows [][]float64
}

func (m *matrix) SaveState(w *Writer) {
	w.Tag("matrix")
	for _, row := range m.rows {
		w.F64s(row)
	}
}

func (m *matrix) RestoreState(r *Reader) {
	r.Expect("matrix")
	for i, row := range m.rows {
		m.rows[i] = r.F64sInto(row[:0])
	}
}

var _ = []any{peekOuter}
