package exp

import (
	"reflect"
	"testing"

	"github.com/accnet/acc/internal/acc"
)

func TestStaleDropStaleness(t *testing.T) {
	f := newStaleDrop(1, telemetry{StaleSlots: 2})
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
	f := newStaleDrop(1, telemetry{DropProb: 1})
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
		f := newStaleDrop(42, telemetry{DropProb: 0.5})
		var oks []bool
		for i := 0; i < 50; i++ {
			_, ok := f.Sample(0, 0, acc.Observation{Util: float64(i)})
			oks = append(oks, ok)
		}
		return oks
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("same-seed staleDrop drop sequence differs between runs")
	}
}
