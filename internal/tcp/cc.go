// Package tcp implements the transport half of the simulated kernel
// datapath: hosts with CPU-accounted packet processing, senders with pacing
// and selective-repeat loss recovery, receivers with goodput and FCT
// accounting, and a pluggable congestion-control interface. Congestion
// control algorithms themselves (BBR, CUBIC, DCTCP, and the NN-driven
// Aurora/MOCC deployments) live in package cc.
package tcp

import "github.com/liteflow-sim/liteflow/internal/netsim"

// AckInfo carries the per-ACK measurements a congestion controller sees —
// the congestion signals the paper's input collector module gathers
// (average throughput, latency, latency gradient, ECN/ACKed bytes).
type AckInfo struct {
	Now          netsim.Time
	RTT          netsim.Time // sample for this ACK
	SRTT         netsim.Time // smoothed RTT maintained by the sender
	AckedBytes   int         // new bytes acknowledged by this ACK
	ECE          bool        // receiver echoed an ECN mark
	DeliveryRate int64       // recent goodput estimate, bits/sec
}

// LossInfo describes a loss-detection event.
type LossInfo struct {
	Now       netsim.Time
	LostBytes int
	// Timeout reports whether the loss was detected by RTO rather than
	// fast retransmit; controllers typically react more sharply.
	Timeout bool
}

// CongestionControl is the contract between the sender and a congestion
// control algorithm. Implementations decide both a pacing rate and a window.
type CongestionControl interface {
	// Start is called once when the flow begins, with the current time.
	Start(now netsim.Time)
	// OnAck processes one acknowledgment.
	OnAck(a AckInfo)
	// OnLoss processes a loss event.
	OnLoss(l LossInfo)
	// PacingRate returns the current pacing rate in bits/sec. The sender
	// spaces data transmissions at this rate (sk_pacing_rate analog).
	PacingRate() int64
	// CwndBytes bounds the bytes in flight.
	CwndBytes() int
}
