package hybrid

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"github.com/accnet/acc/internal/snap/codec"
)

// TestStateStoppedByteIsFalse: the reserved image byte after the mode
// accounting is saved false and restores; an image carrying true is
// refused with an error.
func TestStateStoppedByteIsFalse(t *testing.T) {
	r := newVisitRig(t, DefaultConfig(), 2, 2, 2)
	prefix := codec.NewWriter()
	v := codec.Save(prefix)
	v.Tag("hybrid")
	r.e.Stats.State(v)
	at := prefix.Len()

	w := codec.NewWriter()
	r.e.State(codec.Save(w), nil)
	img := w.Finish()
	if img[at] != 0 {
		t.Fatalf("stopped byte saved as %d, want 0", img[at])
	}
	for _, stopped := range []byte{0, 1} {
		body := slices.Clone(img[:len(img)-4])
		body[at] = stopped
		rd, err := codec.NewReader(binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
		if err != nil {
			t.Fatal(err)
		}
		newVisitRig(t, DefaultConfig(), 2, 2, 2).e.State(codec.Load(rd), nil)
		if got := rd.Err() != nil; got != (stopped == 1) {
			t.Errorf("stopped byte %d: restore error %v", stopped, rd.Err())
		}
	}
}
