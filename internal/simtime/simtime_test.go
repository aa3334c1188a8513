package simtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTxTime(t *testing.T) {
	cases := []struct {
		bytes int
		rate  Rate
		want  Duration
	}{
		{1000, 8 * Kbps, Second},              // 8000 bits at 8kbps = 1s
		{1250, 10 * Gbps, Microsecond},        // 10000 bits at 10G = 1us
		{1000, 0, 0},                          // zero rate -> ideal link
		{0, 25 * Gbps, 0},                     // empty packet
		{1 * KB, 25 * Gbps, Duration(328)},    // 8192 bits / 25e9 = 327.68ns rounded
		{1 * MB, 100 * Gbps, Duration(83886)}, // 8388608/100e9 s
	}
	for _, c := range cases {
		if got := TxTime(c.bytes, c.rate); got != c.want {
			t.Errorf("TxTime(%d, %v) = %v, want %v", c.bytes, c.rate, got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Millisecond)
	if t1.Sub(t0) != 5*Millisecond {
		t.Fatalf("Sub: got %v", t1.Sub(t0))
	}
	if t1.Seconds() != 0.005 {
		t.Fatalf("Seconds: got %v", t1.Seconds())
	}
}

func TestRateOfRoundTrip(t *testing.T) {
	// RateOf must invert bytes delivered = rate / 8 × duration.
	f := func(bytes uint16, ms uint8) bool {
		if ms == 0 {
			return true
		}
		d := Duration(ms) * Millisecond
		r := RateOf(int64(bytes), d)
		back := float64(r) / 8 * d.Seconds()
		return math.Abs(back-float64(bytes)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRateOfZeroDuration(t *testing.T) {
	if RateOf(100, 0) != 0 {
		t.Fatal("RateOf with zero duration must be 0")
	}
	if RateOf(100, -Second) != 0 {
		t.Fatal("RateOf with negative duration must be 0")
	}
}

func TestRateString(t *testing.T) {
	cases := map[Rate]string{
		25 * Gbps:  "25Gbps",
		100 * Gbps: "100Gbps",
		40 * Mbps:  "40Mbps",
		5 * Kbps:   "5Kbps",
		12:         "12bps",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Rate(%v).String() = %q, want %q", float64(r), got, want)
		}
	}
}

func TestTxTimeMonotonicInBytes(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return TxTime(x, 25*Gbps) <= TxTime(y, 25*Gbps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
