package netsim

import (
	"reflect"
	"testing"
)

const lineBytes = 64

// layoutSink keeps TestLayout's probe objects on the heap.
var layoutSink []any

// TestLayout pins the layout the packet path was measured with (DESIGN.md
// "Performance & memory model"). Each struct is a whole number of cache
// lines, so its allocator size class hands out line-aligned objects, and
// the fields a packet hop touches sit in its leading lines: at 2304 hosts
// every first touch of a port or a queue is a cache miss, and the number of
// lines a hop loads is its cost. A field inserted ahead of the hot ones, or
// a size that slips into the next class, must fail here, in the default
// test set, not in a benchmark.
func TestLayout(t *testing.T) {
	for _, tc := range []struct {
		typ     reflect.Type
		maxSize uintptr
		// lines[i] names the fields that must end on or before line i.
		lines [][]string
	}{
		{reflect.TypeOf(Port{}), 384, [][]string{
			// Enqueue and trySend's idle-or-busy check: down's line, where
			// PR 17 paid to put touched and watch.
			{"busy", "down", "paused", "touched", "watch", "prioQ", "Queues", "Peer", "net"},
			// The rest of trySend, with the serialization-time memo on the
			// line that holds the Bandwidth it is keyed on.
			{"rr", "Bandwidth", "txPkt", "txAt", "txEvSeq", "txMemoSize", "txMemoRate", "txMemo"},
			// txDone, deliver, and the receiving end of an arrival.
			{"Owner", "Index", "RxBytesTotal", "TxBytesTotal", "Delay", "rxStream", "txSeq"},
			// The wire: deliver pushes, arrive pops; remote, which deliver
			// reads and trySend only for a port with no Peer.
			{"flight", "remote"},
		}},
		{reflect.TypeOf(EgressQueue{}), 256, [][]string{
			// push and pop.
			{"pkts", "bytes", "byteTime", "lastChange", "clock"},
			// Admission and the DWRR turn.
			{"ECNEnabled", "serving", "inTurn", "RED", "InjectLimit", "EnqBytes", "deficit", "Prio"},
			// trySend's wakeWaiters and txDone's counters.
			{"waiters", "TxBytes", "TxPackets", "TxMarkedBytes", "TxMarkedPkts"},
		}},
		{reflect.TypeOf(Packet{}), 64, nil},
	} {
		name := tc.typ.Name()
		if size := tc.typ.Size(); size > tc.maxSize || size%lineBytes != 0 {
			t.Errorf("%s is %d bytes, want a multiple of %d no larger than %d", name, size, lineBytes, tc.maxSize)
		}
		for line, fields := range tc.lines {
			for _, fn := range fields {
				f, ok := tc.typ.FieldByName(fn)
				if !ok {
					t.Errorf("%s has no field %s: update the pin with the struct", name, fn)
				} else if end := (f.Offset + f.Type.Size() - 1) / lineBytes; end > uintptr(line) {
					t.Errorf("%s.%s at offset %d (%d bytes) reaches line %d, want it within lines 0..%d",
						name, fn, f.Offset, f.Type.Size(), end, line)
				}
			}
		}
		// What the size buys: every heap object of the type starts a line.
		for i := 0; i < 64; i++ {
			ptr := reflect.New(tc.typ)
			layoutSink = append(layoutSink, ptr.Interface())
			if ptr.Pointer()%lineBytes != 0 {
				t.Errorf("a heap %s sits at %#x, not on a %d-byte line", name, ptr.Pointer(), lineBytes)
				break
			}
		}
	}
	layoutSink = nil
}
