//go:build !race

package snap

import (
	"runtime"
	"testing"

	"github.com/accnet/acc/internal/simtime"
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

// TestForkAllocs pins what one fork of the 288-host scenario (12 leaves of
// 24 hosts, 6 spines, 3 000 flows, ACC) costs at a warm point 300 µs in:
// 4.14 MB. The fork shares the scenario's plan and start layout with the
// world the image came from, sizes its endpoint table and rings once from
// the image's counts, and holds each distinct experience row once
// (TestRestoreSharesExperience); drawing the plan again and doubling the
// containers up to size would cost 5.2 MB, and a row per reference 4.21 MB.
// (At the sweep-fork bench's warm point, 1 950 µs, BenchmarkFork's fork
// takes 7.1 MB, 7.7 MB with a row per reference.)
func TestForkAllocs(t *testing.T) {
	const limitMB = 4.15
	img := forkImage(t, 300*simtime.Microsecond)
	got := float64(allocBytes(func() {
		if _, err := Fork(img, Variant{}); err != nil {
			t.Fatal(err)
		}
	})) / (1 << 20)
	t.Logf("image %.2f MB, fork %.3f MB", float64(len(img))/(1<<20), got)
	if got > limitMB {
		t.Fatalf("a fork of the 288-host scenario allocates %.3f MB, want at most %.2f", got, limitMB)
	}
}

// forkImage is an image of the sweep-fork bench's scenario, taken at the
// given instant.
func forkImage(tb testing.TB, at simtime.Duration) []byte { return forkWorld(tb, at).Snapshot() }

// BenchmarkFork forks the sweep-fork bench's scenario at its warm point,
// 1 950 µs: what one branch of that sweep pays before its tail. With
// -memprofile, the profile's alloc_space splits the bytes by component.
func BenchmarkFork(b *testing.B) {
	img := forkImage(b, 1950*simtime.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := Fork(img, Variant{}); err != nil {
			b.Fatal(err)
		}
	}
}
