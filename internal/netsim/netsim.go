// Package netsim models the streaming network path of the evaluation setup:
// a WiFi link with an effective bandwidth of 300 Mbps (§8.2) that prices
// transfer times, and the one buffer/stall Timeline of segmented playback
// that turns those times into startup delay, stalls and buffer lead.
package netsim

import (
	"fmt"
	"math"
)

// Link models a wireless link with fixed effective bandwidth, base latency,
// an optional packet-loss rate (retransmissions stretch transfers by
// the expected 1/(1-loss) factor — a fluid approximation of ARQ), and an
// optional jitter bound used by fault-injection transports.
type Link struct {
	BandwidthBps  float64 // effective payload bandwidth, bits per second
	RTTSeconds    float64 // request round-trip latency
	LossRate      float64 // packet loss probability in [0, 1)
	JitterSeconds float64 // max extra per-request delay (injected uniformly in [0, jitter])
}

// WiFi300 returns the paper's evaluation link: 300 Mbps effective WiFi with
// a small campus-network RTT.
func WiFi300() Link {
	return Link{BandwidthBps: 300e6, RTTSeconds: 2e-3}
}

// Validate reports whether the link is usable. NaN and ±Inf are rejected on
// every field (a NaN loss rate previously slid through the range checks,
// since NaN fails every comparison).
func (l Link) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"bandwidth", l.BandwidthBps},
		{"RTT", l.RTTSeconds},
		{"loss rate", l.LossRate},
		{"jitter", l.JitterSeconds},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("netsim: %s %v must be finite", f.name, f.v)
		}
	}
	if l.BandwidthBps <= 0 {
		return fmt.Errorf("netsim: bandwidth %v bps must be positive", l.BandwidthBps)
	}
	if l.RTTSeconds < 0 {
		return fmt.Errorf("netsim: RTT %v s must be non-negative", l.RTTSeconds)
	}
	if l.LossRate < 0 || l.LossRate >= 1 {
		return fmt.Errorf("netsim: loss rate %v out of [0, 1)", l.LossRate)
	}
	if l.JitterSeconds < 0 {
		return fmt.Errorf("netsim: jitter %v s must be non-negative", l.JitterSeconds)
	}
	return nil
}

// TransferSeconds returns the time to fetch a payload of the given size,
// including one round trip and expected retransmissions.
func (l Link) TransferSeconds(bytes int64) float64 {
	if bytes <= 0 {
		return l.RTTSeconds
	}
	goodput := l.BandwidthBps * (1 - l.LossRate)
	return l.RTTSeconds + float64(bytes)*8/goodput
}
