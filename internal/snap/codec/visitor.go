package codec

// Visitor is one walk over a value's state that both saves and restores
// it. A stateful type lists its fields once, in a state(v *Visitor)
// method, handing each field to the Visitor by pointer: over a Writer the
// walk writes them, over a Reader it reads each one back into place. The
// two directions run the same statements, so field order is image order
// by construction.
//
// Work only a restore does — taking a pooled object to read into,
// re-arming a timer, re-registering an endpoint, checking a value against
// the rebuilt world — sits inside the same walk under Reading. Every count
// the walk sizes anything from goes through Count, and every event slot it
// re-arms through Slot, so a hostile image fails the reader instead of
// allocating without bound or scheduling into the past.
//
// Visitor is a struct, not an interface, so the *Visitor a walk is handed
// stays on its caller's stack.
type Visitor struct {
	w    *Writer
	r    *Reader
	rows rows // reading: every row F64sPacked has read, each once
}

// Save returns a Visitor that writes every field it visits to w.
func Save(w *Writer) *Visitor { return &Visitor{w: w} }

// Load returns a Visitor that reads every field it visits from r.
func Load(r *Reader) *Visitor { return &Visitor{r: r} }

// Reading reports whether the walk restores (true) or saves (false).
func (v *Visitor) Reading() bool { return v.r != nil }

// Err returns the reader's first error; a save has none.
func (v *Visitor) Err() error {
	if v.r == nil {
		return nil
	}
	return v.r.err
}

// Fail latches a restore-side inconsistency on the reader (see
// Reader.Fail). Saved state is the live state, so a check that fails while
// saving is a bug in the walk, and Fail panics.
func (v *Visitor) Fail(format string, args ...any) {
	if v.r == nil {
		panic("codec: state check failed while saving: " + format)
	}
	v.r.Fail(format, args...)
}

// Remaining returns the bytes a restore has still to read, and 0 on save:
// what a restore sizes an arena by.
func (v *Visitor) Remaining() int {
	if v.r == nil {
		return 0
	}
	return v.r.Remaining()
}

// Tag writes a section marker, or expects it (Reader.Expect).
func (v *Visitor) Tag(name string) {
	if v.w != nil {
		v.w.Tag(name)
		return
	}
	v.r.Expect(name)
}

// U64 visits *p as an unsigned varint.
func (v *Visitor) U64(p *uint64) {
	if v.w != nil {
		v.w.U64(*p)
		return
	}
	*p = v.r.U64()
}

// I64 visits *p as a signed varint.
func (v *Visitor) I64(p *int64) {
	if v.w != nil {
		v.w.I64(*p)
		return
	}
	*p = v.r.I64()
}

// Int visits *p as a signed varint.
func (v *Visitor) Int(p *int) {
	if v.w != nil {
		v.w.Int(*p)
		return
	}
	*p = v.r.Int()
}

// Bool visits *p as one byte.
func (v *Visitor) Bool(p *bool) {
	if v.w != nil {
		v.w.Bool(*p)
		return
	}
	*p = v.r.Bool()
}

// F64 visits *p bit for bit.
func (v *Visitor) F64(p *float64) {
	if v.w != nil {
		v.w.F64(*p)
		return
	}
	*p = v.r.F64()
}

// String visits *p as a length-prefixed string.
func (v *Visitor) String(p *string) {
	if v.w != nil {
		v.w.String(*p)
		return
	}
	*p = v.r.String()
}

// F64s visits *p as a length-prefixed list. Reading decodes into *p's own
// backing when its capacity holds the list (Reader.F64sInto), so a restore
// overlays a slice in place.
func (v *Visitor) F64s(p *[]float64) {
	if v.w != nil {
		v.w.F64s(*p)
		return
	}
	*p = v.r.F64sInto(*p)
}

// F64sPacked visits *p like F64s, but reading points *p at the one row
// this Load holds for the list's bytes (see rows), so lists the live state
// shared come back shared. Only rows nothing writes into may go this way.
func (v *Visitor) F64sPacked(p *[]float64) {
	if v.w != nil {
		v.w.F64s(*p)
		return
	}
	if src := v.r.cells(); v.r.err == nil {
		*p = v.rows.intern(src, v.r.pos)
	}
}

// Count visits the length n of a list whose elements take at least
// minBytes each in the image, and returns it. Reading, a count that is
// negative or that the bytes left could not hold fails the reader — named
// what, so the error says which list — and 0 comes back: a hostile count
// sizes nothing.
func (v *Visitor) Count(what string, n, minBytes int) int {
	if v.w != nil {
		v.w.Int(n)
		return n
	}
	n = v.r.Int()
	switch {
	case v.r.err != nil:
	case n < 0:
		v.r.fail("%s %d is negative", what, n)
	case n > v.r.Remaining()/minBytes:
		v.r.fail("%s %d exceeds the %d bytes left", what, n, v.r.Remaining())
	}
	if v.r.err != nil {
		return 0
	}
	return n
}

// integer is every integer type a field can have.
type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// Int64 visits a number of a named or narrow type (simtime.Time, a uint8
// priority) as a signed varint, as Writer.I64 and Writer.Int write it.
// Reading, a value *p's type cannot hold fails the reader: it is a corrupt
// image, not something to truncate into a plausible field. A float type
// (simtime.Rate) is saved truncated toward zero, as the image format has
// always stored rates.
func Int64[T integer | ~float64](v *Visitor, p *T) {
	if v.w != nil {
		v.w.I64(int64(*p))
		return
	}
	x := v.r.I64()
	if int64(T(x)) != x {
		v.r.fail("value %d does not fit its field", x)
		return
	}
	*p = T(x)
}

// Uint64 visits an integer of a named or narrow type (netsim.FlowID, a
// uint32 counter) as an unsigned varint, as Writer.U64 writes it, with
// Int64's range check.
func Uint64[T integer](v *Visitor, p *T) {
	if v.w != nil {
		v.w.U64(uint64(*p))
		return
	}
	x := v.r.U64()
	if uint64(T(x)) != x {
		v.r.fail("value %d does not fit its field", x)
		return
	}
	*p = T(x)
}

// Slot visits one scheduled event's slot: its time as a signed varint,
// then its sequence number as an unsigned one. Reading, a time before now
// — the restored clock of the queue the event goes back into — fails the
// reader: no pending event of a quiescent queue lies in its past, and the
// queue would refuse to schedule it.
func Slot[T ~int64](v *Visitor, at *T, seq *uint64, now T) {
	Int64(v, at)
	v.U64(seq)
	if v.r != nil && v.r.err == nil && *at < now {
		v.r.fail("event slot at %d lies before the clock %d", int64(*at), int64(now))
	}
}
