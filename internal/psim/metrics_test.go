package psim

import (
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

func TestRecoveryTime(t *testing.T) {
	smp := &Sampler{}
	// 10 samples at baseline 10, a dip to 2 during the fault, then back.
	vals := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 2, 2, 2, 2, 9.5, 9.6, 10, 10}
	for i, v := range vals {
		smp.Goodput.Add(us(int64(i)), v)
	}
	faultAt, repairAt := us(10), us(13)
	d, ok := smp.RecoveryTime(faultAt, repairAt, 0.9, 2)
	if !ok {
		t.Fatal("recovery not detected")
	}
	// First sustained run of two samples >= 9.0 starts at t=14µs, 1µs
	// after the repair.
	if want := simtime.Microsecond; d != want {
		t.Errorf("recovery time = %v, want %v", d, want)
	}
	if _, ok := smp.RecoveryTime(faultAt, repairAt, 0.9, 10); ok {
		t.Error("recovery reported with an unsatisfiable sustain window")
	}
	if _, ok := smp.RecoveryTime(us(0), us(0), 0.9, 1); ok {
		t.Error("recovery reported with no pre-fault baseline")
	}
	// A dip at 15µs breaks the run begun at 14µs: recovery is timed from
	// the run that starts at 16µs.
	smp.Goodput.Values[15] = 2
	if d, ok := smp.RecoveryTime(faultAt, repairAt, 0.9, 2); !ok || d != 3*simtime.Microsecond {
		t.Errorf("recovery after a broken run = %v (ok %v), want %v", d, ok, 3*simtime.Microsecond)
	}
}
