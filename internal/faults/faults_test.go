package faults

import (
	"reflect"
	"testing"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/simtime"
)

func TestStaleDropStaleness(t *testing.T) {
	f := NewStaleDrop(1, Telemetry{StaleSlots: 2})
	var got []float64
	for i := 1; i <= 5; i++ {
		obs, ok := f.Sample(0, 0, acc.Observation{Util: float64(i)})
		if !ok {
			t.Fatalf("sample %d dropped with DropProb=0", i)
		}
		got = append(got, obs.Util)
	}
	// Two slots of staleness: the first window is re-delivered during
	// warmup, then the stream lags by exactly two.
	want := []float64{1, 1, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stale delivery = %v, want %v", got, want)
	}
	if f.Delivered != 5 || f.Drops != 0 {
		t.Errorf("counters = %d delivered / %d drops, want 5/0", f.Delivered, f.Drops)
	}
	// Queues are independent FIFOs.
	obs, _ := f.Sample(0, 1, acc.Observation{Util: 99})
	if obs.Util != 99 {
		t.Errorf("queue 1 first sample = %v, want its own stream (99)", obs.Util)
	}
}

func TestStaleDropAllDropped(t *testing.T) {
	f := NewStaleDrop(1, Telemetry{DropProb: 1})
	for i := 0; i < 10; i++ {
		if _, ok := f.Sample(0, 0, acc.Observation{Util: 1}); ok {
			t.Fatal("DropProb=1 delivered a window")
		}
	}
	if f.Drops != 10 || f.Delivered != 0 {
		t.Errorf("counters = %d drops / %d delivered, want 10/0", f.Drops, f.Delivered)
	}
}

func TestStaleDropDeterminism(t *testing.T) {
	run := func() []bool {
		f := NewStaleDrop(42, Telemetry{DropProb: 0.5})
		var oks []bool
		for i := 0; i < 50; i++ {
			_, ok := f.Sample(0, 0, acc.Observation{Util: float64(i)})
			oks = append(oks, ok)
		}
		return oks
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("same-seed StaleDrop drop sequence differs between runs")
	}
}

func TestRecoveryTime(t *testing.T) {
	tr := &Tracker{Period: simtime.Microsecond}
	at := func(i int) simtime.Time { return simtime.Time(0).Add(simtime.Duration(i) * simtime.Microsecond) }
	// 10 samples at baseline 10, a dip to 2 during the fault, then back.
	vals := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 2, 2, 2, 2, 9.5, 9.6, 10, 10}
	for i, v := range vals {
		tr.Goodput.Add(at(i), v)
	}
	faultAt, repairAt := at(10), at(13)
	d, ok := tr.RecoveryTime(faultAt, repairAt, 0.9, 2)
	if !ok {
		t.Fatal("recovery not detected")
	}
	// First sustained run of two samples >= 9.0 starts at t=14µs, 1µs
	// after the repair.
	if want := simtime.Microsecond; d != want {
		t.Errorf("recovery time = %v, want %v", d, want)
	}
	if _, ok := tr.RecoveryTime(faultAt, repairAt, 0.9, 10); ok {
		t.Error("recovery reported with an unsatisfiable sustain window")
	}
	if _, ok := tr.RecoveryTime(at(0), at(0), 0.9, 1); ok {
		t.Error("recovery reported with no pre-fault baseline")
	}
}
