package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/accnet/acc/internal/simtime"
)

func rec(size int64, fct simtime.Duration) FlowRecord {
	return FlowRecord{Size: size, Start: 0, End: simtime.Time(fct)}
}

func TestSummarize(t *testing.T) {
	var c FCTCollector
	for i := 1; i <= 100; i++ {
		c.Add(rec(1000, simtime.Duration(i)*simtime.Microsecond))
	}
	s := Summarize(c.Records)
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Avg != simtime.Duration(50500)*simtime.Nanosecond {
		t.Fatalf("avg %v", s.Avg)
	}
	if s.Max != 100*simtime.Microsecond {
		t.Fatalf("max %v", s.Max)
	}
	if s.P50 < 49*simtime.Microsecond || s.P50 > 52*simtime.Microsecond {
		t.Fatalf("p50 %v", s.P50)
	}
	if s.P99 < 98*simtime.Microsecond || s.P99 > 100*simtime.Microsecond {
		t.Fatalf("p99 %v", s.P99)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Avg != 0 {
		t.Fatal("empty summary must be zero")
	}
}

func TestSizeClasses(t *testing.T) {
	var c FCTCollector
	c.Add(rec(50*simtime.KB, 1))  // mouse
	c.Add(rec(100*simtime.KB, 1)) // mouse (boundary)
	c.Add(rec(simtime.MB, 1))     // middle
	c.Add(rec(10*simtime.MB, 1))  // elephant (boundary)
	c.Add(rec(100*simtime.MB, 1)) // elephant
	if n := len(c.Mice()); n != 2 {
		t.Fatalf("mice %d, want 2", n)
	}
	if n := len(c.Elephants()); n != 2 {
		t.Fatalf("elephants %d, want 2", n)
	}
	if n := len(c.SizeRange(100*simtime.KB, 10*simtime.MB)); n != 2 {
		t.Fatalf("middle %d, want 2 (1MB and 10MB)", n)
	}
	if n := len(c.SizeRange(10*simtime.MB, 0)); n != 1 {
		t.Fatalf("unbounded range %d, want 1", n)
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		if len(raw) == 0 {
			return math.IsNaN(Percentile(nil, 0.5))
		}
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 0
			}
		}
		sort.Float64s(raw)
		p := float64(pRaw) / 255
		v := Percentile(raw, p)
		return v >= raw[0] && v <= raw[len(raw)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileExact(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if got := Percentile(xs, 0); got != 10 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 1); got != 50 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 0.5); got != 30 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(xs, 0.25); got != 20 {
		t.Fatalf("p25 = %v", got)
	}
	if got := Percentile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("single-element percentile = %v", got)
	}
}

func TestSeriesStats(t *testing.T) {
	var s Series
	for i, v := range []float64{2, 4, 6, 8} {
		s.Add(simtime.Time(i), v)
	}
	if s.Len() != 4 || s.Avg() != 5 || s.Max() != 8 {
		t.Fatalf("len=%d avg=%v max=%v", s.Len(), s.Avg(), s.Max())
	}
	if got := s.Std(); math.Abs(got-math.Sqrt(5)) > 1e-12 {
		t.Fatalf("std %v, want sqrt(5)", got)
	}
	if q := s.Quantile(0.5); q != 5 {
		t.Fatalf("median %v", q)
	}
	var empty Series
	if empty.Avg() != 0 || empty.Max() != 0 || empty.Std() != 0 || empty.Quantile(0.5) != 0 {
		t.Fatal("empty series stats must be zero")
	}
}
