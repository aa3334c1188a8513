// Package snapcover_ok exercises every legitimate way a field of a type
// with a state walk is accounted for: visited directly, visited through a
// local copy or a range variable, rebuilt reader-free by the walk or by a
// restore constructor that calls it, function-valued (implicitly exempt),
// or annotated with //acclint:ignore snapcover and what rebuilds it.
package snapcover_ok

// Visitor is the fixture's own codec Visitor; the test config points
// CodecVisitorType at it.
type Visitor struct{ reading bool }

func (v *Visitor) Tag(string)      {}
func (v *Visitor) I64(*int64)      {}
func (v *Visitor) Int(*int)        {}
func (v *Visitor) Bool(*bool)      {}
func (v *Visitor) Reading() bool   { return v.reading }
func (v *Visitor) F64s(*[]float64) {}

type registry struct {
	n int
}

// engine covers each class once: ticks is visited, next through a local
// copy written back, slots through a range variable handed to a nested
// walk, cache is rebuilt reader-free on restore, reg is rebuilt by the
// restore constructor, owner carries an annotation, and tick is a
// function value with no serializable identity.
type engine struct {
	ticks int64
	next  int
	slots []*slot
	cache []int64
	reg   *registry
	//acclint:ignore snapcover construction wiring: the owner registry is rebound by whoever builds the engine, mirroring the real tree's Network back-references
	owner *registry
	tick  func()
}

func (e *engine) state(v *Visitor) {
	v.Tag("engine")
	v.I64(&e.ticks)
	next := e.next
	v.Int(&next)
	e.next = next
	for _, s := range e.slots {
		s.state(v)
	}
	if v.Reading() {
		e.cache = e.cache[:0]
	}
}

// restoreEngine is a restore constructor: what it sets before the walk
// runs is rebuilt, not read from the image.
func restoreEngine(v *Visitor, reg *registry) *engine {
	e := &engine{reg: reg}
	e.state(v)
	return e
}

// slot is a nested walk whose payload is visited only when present; the
// reset that stands for an absent one is guarded by the visited flag.
type slot struct {
	has  bool
	vals []float64
}

func (s *slot) state(v *Visitor) {
	if v.Bool(&s.has); s.has {
		v.F64s(&s.vals)
	} else if v.Reading() {
		s.vals = nil
	}
}
