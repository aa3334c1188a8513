// Package red implements the WRED/ECN marking discipline that commodity
// switch chips apply at egress queues, parameterized by the ECN template
// (Kmin, Kmax, Pmax) that ACC tunes.
//
// Marking follows RFC 3168 semantics with the instantaneous-queue variant
// used in datacenters (DCTCP, DCQCN): when the egress queue length is below
// Kmin nothing is marked; between Kmin and Kmax packets are marked with a
// probability that rises linearly to Pmax; above Kmax every ECN-capable
// packet is marked. Packets that are not ECN-capable are dropped instead of
// marked in the above-Kmax region, which is how the drop-tail interaction in
// the paper's TCP/RDMA fairness study (§5.2) arises.
package red

import (
	"fmt"
	"math/rand"

	"github.com/accnet/acc/internal/snap/codec"
)

// Config is an ECN/WRED template: the three parameters the paper's agent
// tunes per egress queue (§3.3, "Action").
type Config struct {
	Kmin int     // low marking threshold, bytes
	Kmax int     // high marking threshold, bytes
	Pmax float64 // marking probability at Kmax, in [0,1]
}

// State visits the template: an egress queue's live thresholds, or a
// snapshot scenario's override.
func (c *Config) State(v *codec.Visitor) {
	v.Int(&c.Kmin)
	v.Int(&c.Kmax)
	v.F64(&c.Pmax)
}

// Validate reports whether the template is self-consistent.
func (c Config) Validate() error {
	if c.Kmin < 0 || c.Kmax < 0 {
		return fmt.Errorf("red: negative threshold (Kmin=%d Kmax=%d)", c.Kmin, c.Kmax)
	}
	if c.Kmin > c.Kmax {
		return fmt.Errorf("red: Kmin %d > Kmax %d", c.Kmin, c.Kmax)
	}
	if c.Pmax < 0 || c.Pmax > 1 {
		return fmt.Errorf("red: Pmax %v outside [0,1]", c.Pmax)
	}
	return nil
}

func (c Config) String() string {
	return fmt.Sprintf("ECN{Kmin=%dKB Kmax=%dKB Pmax=%.0f%%}", c.Kmin/1024, c.Kmax/1024, c.Pmax*100)
}

// MarkProb returns the marking probability for an ECN-capable packet arriving
// when the queue holds qlen bytes.
func (c Config) MarkProb(qlen int) float64 {
	switch {
	case qlen < c.Kmin:
		return 0
	case qlen >= c.Kmax:
		return 1
	default:
		span := c.Kmax - c.Kmin
		if span == 0 {
			return 1
		}
		return c.Pmax * float64(qlen-c.Kmin) / float64(span)
	}
}

// Verdict is the outcome of admitting one packet.
type Verdict int

const (
	// Pass admits the packet unmarked.
	Pass Verdict = iota
	// Mark admits the packet with the CE codepoint set.
	Mark
	// Drop discards the packet (non-ECT packet above Kmax, or buffer full —
	// the caller decides buffer overflow separately).
	Drop
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Mark:
		return "mark"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Admit decides the fate of a packet arriving at a queue currently holding
// qlen bytes. ect reports whether the packet is ECN-capable transport.
// rng drives the probabilistic region; it must not be nil.
func (c Config) Admit(qlen int, ect bool, rng *rand.Rand) Verdict {
	p := c.MarkProb(qlen)
	if p <= 0 {
		return Pass
	}
	hit := p >= 1 || rng.Float64() < p
	if !hit {
		return Pass
	}
	if ect {
		return Mark
	}
	return Drop
}

// Presets from the paper's evaluation (§2.2, §5.1). SECN thresholds scale
// with link bandwidth in SECN2; these constructors take the reference values
// at 25Gbps and the callers scale as needed.

// SECN0 is the DCTCP-paper setting: single threshold Kmin=Kmax=18KB (Fig. 2).
func SECN0() Config { return Config{Kmin: 18 * 1024, Kmax: 18 * 1024, Pmax: 1} }

// SECN1 is the DCQCN-paper setting: Kmin=5KB, Kmax=200KB (§5.1 uses Pmax=1%
// per the DCQCN paper's recommended marking slope).
func SECN1() Config { return Config{Kmin: 5 * 1024, Kmax: 200 * 1024, Pmax: 0.01} }

// SECN2 is the cloud-provider (HPCC-paper) setting at bandwidth bw:
// Kmin=100KB and Kmax=400KB scaled by bw/25Gbps (§5.1).
func SECN2(bwGbps float64) Config {
	s := bwGbps / 25
	return Config{Kmin: int(100 * 1024 * s), Kmax: int(400 * 1024 * s), Pmax: 1}
}

// VendorDefault is the device-vendor storage-cluster suggestion the paper
// compares against in §5.3.1: Kmin=30KB, Kmax=270KB, Pmax=10%.
func VendorDefault() Config { return Config{Kmin: 30 * 1024, Kmax: 270 * 1024, Pmax: 0.10} }
