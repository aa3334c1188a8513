// Package simtime defines the virtual time base and unit helpers used by the
// discrete-event network simulator.
//
// All simulation clocks are expressed as integer nanoseconds (Time), which
// keeps event ordering exact and avoids floating-point drift over long runs.
// Link speeds are expressed in bits per second (Rate); buffer and packet
// sizes in bytes.
package simtime

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. The zero value is the simulation epoch.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "1.5ms".
func (t Time) String() string { return Duration(t).String() }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration using the standard library's formatting.
func (d Duration) String() string { return time.Duration(d).String() }

// Rate is a data rate in bits per second.
type Rate float64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps              = 1e3 * BitPerSecond
	Mbps              = 1e6 * BitPerSecond
	Gbps              = 1e9 * BitPerSecond
)

// String formats the rate with an adaptive unit, e.g. "25Gbps".
func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%gGbps", float64(r/Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%gMbps", float64(r/Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%gKbps", float64(r/Kbps))
	default:
		return fmt.Sprintf("%gbps", float64(r))
	}
}

// Common byte sizes.
const (
	KB = 1 << 10
	MB = 1 << 20
)

// TxTime returns the serialization delay of sending bytes at rate r.
// A zero or negative rate yields zero delay (used for ideal control links).
func TxTime(bytes int, r Rate) Duration {
	if r <= 0 {
		return 0
	}
	return Duration(float64(bytes)*8/float64(r)*float64(Second) + 0.5)
}

// RateOf returns the rate that delivers bytes over duration d.
// A zero duration yields zero.
func RateOf(bytes int64, d Duration) Rate {
	if d <= 0 {
		return 0
	}
	return Rate(float64(bytes) * 8 / d.Seconds())
}
