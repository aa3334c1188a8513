package workload

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"runtime"
	"testing"
)

// leastAlloc runs fn tries times and returns the least TotalAlloc growth of
// one run, after a GC when gc is set. TotalAlloc is process-wide, so
// another goroutine can allocate inside one run's window; the least growth
// over a few runs is fn's own.
func leastAlloc(tries int, gc bool, fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range tries {
		var before, after runtime.MemStats
		if gc {
			runtime.GC()
		}
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// A binary trace whose flow count claims far more records than the file
// holds is one error, and costs what the file holds, not what it claims.
func TestHostileTraceCountAllocatesLittle(t *testing.T) {
	in := append([]byte(nil), traceMagic...)
	in = append(in, 0, 0, 0, 0, 0, 0, 0) // name, seed, geometry, horizon, classes
	in = binary.AppendUvarint(in, 1<<24)
	var err error
	grew := leastAlloc(5, true, func() { _, err = DecodeTrace(bytes.NewReader(in)) })
	if err == nil {
		t.Fatal("a trace claiming 2^24 flows in 0 bytes decoded")
	}
	if grew >= 1<<20 {
		t.Fatalf("decoding %d bytes claiming 2^24 flows allocated %d bytes", len(in), grew)
	}
}

// allocBounded fails t when decoding n untrusted bytes with fn allocates
// more than the fixed readers (bufio's 4 KB, the JSONL scanner's 64 KB, a
// small trace's preallocated flows) plus a small multiple of the input. An
// overrun gets two more runs, since another goroutine may have allocated
// inside the first one's window.
func allocBounded(t *testing.T, n int, fn func()) {
	t.Helper()
	limit := uint64(64*n + 256<<10)
	grew := leastAlloc(1, false, fn)
	if grew > limit {
		grew = min(grew, leastAlloc(2, false, fn))
	}
	if grew > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", n, grew, limit)
	}
}

// FuzzDecodeTrace feeds the trace reader files EncodeBinary and EncodeJSONL
// did not write. Every input must decode to a valid trace that round-trips
// through both encodings, or be one error: no panic, and no allocation
// beyond a small multiple of the input's length.
func FuzzDecodeTrace(f *testing.F) {
	tr, err := DefaultMixSpec().Generate(1)
	if err != nil {
		f.Fatal(err)
	}
	var bin, jsonl bytes.Buffer
	if err := tr.EncodeBinary(&bin); err != nil {
		f.Fatal(err)
	}
	if err := tr.EncodeJSONL(&jsonl); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	f.Add(jsonl.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Trace
		var err error
		allocBounded(t, len(data), func() { got, err = DecodeTrace(bytes.NewReader(data)) })
		if (got == nil) == (err == nil) {
			t.Fatalf("DecodeTrace returned trace %v and error %v", got, err)
		}
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("decoded an invalid trace: %v", err)
		}
		for name, enc := range map[string]func(*bytes.Buffer) error{
			"binary": func(b *bytes.Buffer) error { return got.EncodeBinary(b) },
			"jsonl":  func(b *bytes.Buffer) error { return got.EncodeJSONL(b) },
		} {
			var b bytes.Buffer
			if err := enc(&b); err != nil {
				t.Fatalf("%s encode: %v", name, err)
			}
			back, err := DecodeTrace(&b)
			if err != nil {
				t.Fatalf("%s round trip: %v", name, err)
			}
			if !back.Equal(got) {
				t.Fatalf("%s round trip changed the trace", name)
			}
		}
	})
}

// FuzzParseSpec feeds the spec parser documents json.Marshal did not write.
// Every input must parse to a spec that validates, or be one error: no
// panic, and no allocation beyond a small multiple of the input's length.
func FuzzParseSpec(f *testing.F) {
	seed, err := json.Marshal(DefaultMixSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Spec
		var err error
		allocBounded(t, len(data), func() { got, err = ParseSpec(data) })
		if (got == nil) == (err == nil) {
			t.Fatalf("ParseSpec returned spec %v and error %v", got, err)
		}
		if err == nil {
			if err := got.Validate(); err != nil {
				t.Fatalf("parsed a spec that does not validate: %v", err)
			}
		}
	})
}
