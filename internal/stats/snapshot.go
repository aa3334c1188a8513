package stats

import (
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// State visits the series contents. Reading replaces them.
func (s *Series) State(v *codec.Visitor) {
	v.Tag("series")
	n := v.Count("series length", len(s.Times), 1+8)
	if v.Reading() {
		s.Times = make([]simtime.Time, n)
	}
	for i := range s.Times {
		codec.Int64(v, &s.Times[i])
	}
	v.F64s(&s.Values)
	if len(s.Values) != n {
		v.Fail("series times/values length mismatch %d/%d", n, len(s.Values))
	}
}
