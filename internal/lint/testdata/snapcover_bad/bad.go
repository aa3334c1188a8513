// Package snapcover_bad seeds the failures snapcover exists to catch: a
// field a state walk never visits and no restore path rebuilds, so a
// restored object diverges from the cold run the first time the field
// matters — including the near misses that look like coverage and are not.
package snapcover_bad

// Visitor is the fixture's own codec Visitor; the test config points
// CodecVisitorType at it.
type Visitor struct{ reading bool }

func (v *Visitor) Tag(string)          {}
func (v *Visitor) I64(*int64)          {}
func (v *Visitor) Int(*int)            {}
func (v *Visitor) Bool(*bool)          {}
func (v *Visitor) F64(*float64)        {}
func (v *Visitor) Reading() bool       { return v.reading }
func (v *Visitor) Fail(string, ...any) {}
func (v *Visitor) F64s(*[]float64)     {}

// flow drops acked from its walk: every restore silently zeroes the ack
// counter.
type flow struct {
	sent  int64
	acked int64
	rate  float64
}

func (f *flow) state(v *Visitor) {
	v.Tag("flow")
	v.I64(&f.sent)
	v.F64(&f.rate)
}

// params is visited through its own walk, which drops dropped.
type params struct {
	kmin    int
	kmax    int
	dropped int
}

func (p *params) state(v *Visitor) {
	v.Int(&p.kmin)
	v.Int(&p.kmax)
}

// device nests params and looks covered three ways that do not count:
// next is copied out and written back without being visited in between
// (a round trip); limit is only named in a Fail check, which visits
// nothing; and opt is reset under a condition read from the image but its
// payload is never visited.
type device struct {
	p     params
	next  int
	limit int
	has   bool
	opt   []float64
}

func (d *device) state(v *Visitor) {
	v.Tag("device")
	d.p.state(v)
	next := d.next
	if next > d.limit {
		v.Fail("ring position %d past %d", next, d.limit)
	}
	d.next = next
	has := d.has
	if v.Bool(&has); !has && v.Reading() {
		d.opt = nil
	}
}
