//go:build !race

package snap

import (
	"runtime"
	"testing"
)

// allocBytes returns how many bytes fn allocates, warm: the second of two
// calls, so pools and one-time set-up are not charged to it.
func allocBytes(fn func()) uint64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAllocForkOverlay pins rebuild-then-overlay at allocating once: a fork
// is one Build plus an overlay that decodes into what Build made, so on top
// of Build it may allocate what the image holds — bounded here by twice the
// image's size — and not a second copy of every agent, which is what it
// did while the overlay replaced networks and replay backings Build had
// just allocated.
func TestAllocForkOverlay(t *testing.T) {
	sc := testScenario(1, "packet")
	sc.ACC = true
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sc.Horizon / 2)
	img := w.Snapshot()

	build := allocBytes(func() {
		if _, err := Build(sc); err != nil {
			t.Fatal(err)
		}
	})
	fork := allocBytes(func() {
		if _, err := Fork(img, Variant{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("image %d bytes, Build allocates %d, Fork %d", len(img), build, fork)
	if limit := build + 2*uint64(len(img)); fork > limit {
		t.Fatalf("Fork allocates %d bytes; Build allocates %d and the image is %d, so at most %d",
			fork, build, len(img), limit)
	}
}
