// Package stats collects and summarizes the measurements the paper reports:
// flow completion times (average and tail, bucketed by flow size), queue
// depth time series, and per-class fairness.
package stats

import (
	"fmt"
	"math"
	"sort"

	"github.com/accnet/acc/internal/simtime"
)

// FlowRecord is one completed flow.
type FlowRecord struct {
	Size  int64
	Start simtime.Time
	End   simtime.Time
	Class string // optional label (e.g. "rdma", "tcp")
}

// FCT returns the record's completion time.
func (r FlowRecord) FCT() simtime.Duration { return r.End.Sub(r.Start) }

// Paper flow-size classes (§5.4): mice are (0,100KB], elephants [10MB,∞).
const (
	MiceMax     = 100 * simtime.KB
	ElephantMin = 10 * simtime.MB
)

// FCTCollector accumulates completed flows.
type FCTCollector struct {
	Records []FlowRecord
}

// Add appends a record.
func (c *FCTCollector) Add(r FlowRecord) { c.Records = append(c.Records, r) }

// AddFlow is a convenience for transports' onDone callbacks.
func (c *FCTCollector) AddFlow(size int64, start, end simtime.Time, class string) {
	c.Add(FlowRecord{Size: size, Start: start, End: end, Class: class})
}

// Filter returns records matching the predicate.
func (c *FCTCollector) Filter(keep func(FlowRecord) bool) []FlowRecord {
	var out []FlowRecord
	for _, r := range c.Records {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// Mice returns flows in (0, 100KB].
func (c *FCTCollector) Mice() []FlowRecord {
	return c.Filter(func(r FlowRecord) bool { return r.Size <= MiceMax })
}

// Elephants returns flows in [10MB, ∞).
func (c *FCTCollector) Elephants() []FlowRecord {
	return c.Filter(func(r FlowRecord) bool { return r.Size >= ElephantMin })
}

// SizeRange returns flows with lo < size <= hi (hi<=0 means unbounded).
func (c *FCTCollector) SizeRange(lo, hi int64) []FlowRecord {
	return c.Filter(func(r FlowRecord) bool {
		return r.Size > lo && (hi <= 0 || r.Size <= hi)
	})
}

// FCTSummary condenses a set of records.
type FCTSummary struct {
	Count int
	Avg   simtime.Duration
	P50   simtime.Duration
	P90   simtime.Duration
	P99   simtime.Duration
	P999  simtime.Duration
	Max   simtime.Duration
}

// Summarize computes average and tail statistics over the records.
func Summarize(recs []FlowRecord) FCTSummary {
	if len(recs) == 0 {
		return FCTSummary{}
	}
	fcts := make([]float64, len(recs))
	var sum float64
	for i, r := range recs {
		f := float64(r.FCT())
		fcts[i] = f
		sum += f
	}
	sort.Float64s(fcts)
	return FCTSummary{
		Count: len(recs),
		Avg:   simtime.Duration(sum / float64(len(recs))),
		P50:   simtime.Duration(Percentile(fcts, 0.50)),
		P90:   simtime.Duration(Percentile(fcts, 0.90)),
		P99:   simtime.Duration(Percentile(fcts, 0.99)),
		P999:  simtime.Duration(Percentile(fcts, 0.999)),
		Max:   simtime.Duration(fcts[len(fcts)-1]),
	}
}

func (s FCTSummary) String() string {
	return fmt.Sprintf("n=%d avg=%v p50=%v p99=%v p99.9=%v", s.Count, s.Avg, s.P50, s.P99, s.P999)
}

// Percentile returns the p-quantile (0<=p<=1) of a sorted sample using
// linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n == 1:
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Series is a time series of float samples.
type Series struct {
	Times  []simtime.Time
	Values []float64
}

// Add appends a sample.
func (s *Series) Add(t simtime.Time, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Reset drops all samples but keeps the backing arrays, so a long-lived
// monitor can be drained window by window without reallocating.
func (s *Series) Reset() {
	s.Times = s.Times[:0]
	s.Values = s.Values[:0]
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Avg returns the mean of the samples (0 when empty).
func (s *Series) Avg() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Max returns the maximum sample (0 when empty).
func (s *Series) Max() float64 {
	m := 0.0
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// Std returns the population standard deviation.
func (s *Series) Std() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	mean := s.Avg()
	var ss float64
	for _, v := range s.Values {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s.Values)))
}

// Quantile returns the q-quantile of the sample values.
func (s *Series) Quantile(q float64) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	cp := append([]float64(nil), s.Values...)
	sort.Float64s(cp)
	return Percentile(cp, q)
}
