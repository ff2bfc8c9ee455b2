package cc

import (
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

// Monitor-interval state layout shared by Aurora and MOCC: a sliding history
// of HistoryLen feature triples (latency gradient, latency ratio − 1,
// send ratio − 1), flattened oldest-first into a StateDim vector.
const (
	FeatureDim = 3
	HistoryLen = 10
	StateDim   = FeatureDim * HistoryLen
)

// Policy maps an MI state vector to an action in [−1, 1]. Positive actions
// raise the sending rate multiplicatively, negative actions lower it
// (Aurora's rate update rule).
type Policy interface {
	Act(state []float64) float64
}

// PolicyFunc adapts a function to Policy.
type PolicyFunc func(state []float64) float64

// Act calls f.
func (f PolicyFunc) Act(state []float64) float64 { return f(state) }

// Backend decides where and when policy inference executes — the axis the
// whole paper is about. The kernel-snapshot deployment answers immediately
// at integer-inference cost; the CCP deployment batches queries across the
// kernel/userspace boundary.
type Backend interface {
	// Query requests an action for state; reply runs asynchronously
	// (possibly inline) when the decision is available.
	Query(state []float64, reply func(action float64))
}

// AckObserver is implemented by backends whose cost scales with ACK arrival
// (the CCP per-ACK mode); the controller notifies them on every ACK.
type AckObserver interface {
	OnAckEvent()
}

// minMI floors the monitor interval.
const minMI = 2 * netsim.Millisecond

// monitor is the monitor-interval loop both NN rate controllers run (paper
// §3.1): per-ACK accumulators, the interval timer, feature derivation over a
// sliding history, the backend query and the slow path's OnState tap. It
// implements tcp.CongestionControl for the controller that embeds it; what it
// does not know is how a policy output becomes a pacing rate, which is the
// embedding controller's law.
type monitor struct {
	Eng *netsim.Engine

	// Backend performs policy inference. Required.
	Backend Backend
	// OnState, when set, observes each (state, action, MI summary) — the
	// paper's NN input collector feeding the slow path. Which value the law
	// reports as the action is the law's to say.
	OnState func(state []float64, action float64, mi MISummary)

	law  law
	rate int64 // pacing rate in bits/sec; after construction only the law's result is stored here
	srtt netsim.Time

	history [StateDim]float64
	state   [StateDim]float64

	minRTT     netsim.Time
	miStart    netsim.Time
	rttSum     netsim.Time
	rttCount   int
	ackedBytes int
	lostBytes  int
	prevAvgRTT netsim.Time
	running    bool

	// MIs counts completed monitor intervals.
	MIs int64
}

// law is the part of a monitor-interval controller that is its own. decide
// turns the policy's output for the interval just closed into the pacing rate
// (bits/sec) of the next, and returns the value OnState is shown beside the
// state: the raw action under the rate-step law, the clipped α under the
// absolute one. It runs once per interval, never per ACK.
type law interface {
	decide(out float64) (rate int64, shown float64)
}

// MISummary carries the per-MI aggregates alongside the derived features.
type MISummary struct {
	Start, End  netsim.Time
	AvgRTT      netsim.Time
	MinRTT      netsim.Time
	AckedBytes  int
	LostBytes   int
	Rate        int64   // rate during the interval
	Utilization float64 // acked throughput / rate
}

// newMonitor returns the loop pacing at rate until l's first decision.
func newMonitor(eng *netsim.Engine, backend Backend, l law, rate int64) monitor {
	return monitor{
		Eng:     eng,
		Backend: backend,
		law:     l,
		rate:    rate,
		minRTT:  1 << 62,
	}
}

// Start implements tcp.CongestionControl.
func (m *monitor) Start(now netsim.Time) {
	m.running = true
	m.miStart = now
	m.scheduleMI()
}

// Stop halts the MI timer (flows that complete stop naturally; this is for
// experiment teardown).
func (m *monitor) Stop() { m.running = false }

func (m *monitor) miDuration() netsim.Time {
	d := m.srtt
	if d < minMI {
		d = minMI
	}
	return d
}

func (m *monitor) scheduleMI() {
	if !m.running {
		return
	}
	m.Eng.After(m.miDuration(), m.endMI)
}

// OnAck implements tcp.CongestionControl.
func (m *monitor) OnAck(a tcp.AckInfo) {
	m.srtt = a.SRTT
	if a.RTT > 0 {
		m.rttSum += a.RTT
		m.rttCount++
		if a.RTT < m.minRTT {
			m.minRTT = a.RTT
		}
	}
	m.ackedBytes += a.AckedBytes
	if obs, ok := m.Backend.(AckObserver); ok {
		obs.OnAckEvent()
	}
}

// OnLoss implements tcp.CongestionControl.
func (m *monitor) OnLoss(l tcp.LossInfo) {
	m.lostBytes += l.LostBytes
}

// endMI closes the current monitor interval, derives features, and queries
// the backend.
func (m *monitor) endMI() {
	if !m.running {
		return
	}
	now := m.Eng.Now()
	dur := now - m.miStart
	if dur <= 0 {
		dur = 1
	}

	avgRTT := m.prevAvgRTT
	if m.rttCount > 0 {
		avgRTT = m.rttSum / netsim.Time(m.rttCount)
	}

	// Feature 1: latency gradient in RTT-seconds per second.
	var latGrad float64
	if m.prevAvgRTT > 0 && avgRTT > 0 {
		latGrad = float64(avgRTT-m.prevAvgRTT) / float64(dur)
	}
	// Feature 2: latency ratio − 1.
	latRatio := 0.0
	if m.minRTT < 1<<62 && avgRTT > 0 {
		latRatio = float64(avgRTT)/float64(m.minRTT) - 1
	}
	// Feature 3: send ratio − 1, from intended vs acknowledged bytes.
	sent := float64(m.rate) * float64(dur) / 1e9 / 8
	acked := float64(m.ackedBytes)
	sendRatio := 0.0
	if acked > 1 {
		sendRatio = sent/acked - 1
	} else if sent > float64(netsim.MSS) {
		sendRatio = 5 // nothing delivered this MI: maximal distress
	}

	f := [FeatureDim]float64{
		clip(latGrad*20, -1, 1),
		clip(latRatio, -1, 5),
		clip(sendRatio, -1, 5),
	}

	// Slide the history and snapshot the state.
	copy(m.history[:], m.history[FeatureDim:])
	copy(m.history[StateDim-FeatureDim:], f[:])
	copy(m.state[:], m.history[:])

	summary := MISummary{
		Start: m.miStart, End: now,
		AvgRTT: avgRTT, MinRTT: m.minRTT,
		AckedBytes: m.ackedBytes, LostBytes: m.lostBytes,
		Rate: m.rate,
	}
	if m.rate > 0 {
		summary.Utilization = acked * 8 / (float64(m.rate) * float64(dur) / 1e9)
	}

	// Reset accumulators for the next MI.
	m.prevAvgRTT = avgRTT
	m.miStart = now
	m.rttSum, m.rttCount = 0, 0
	m.ackedBytes, m.lostBytes = 0, 0
	m.MIs++

	state := m.state[:]
	m.Backend.Query(state, func(out float64) {
		var shown float64
		m.rate, shown = m.law.decide(out)
		if m.OnState != nil {
			m.OnState(state, shown, summary)
		}
	})
	m.scheduleMI()
}

// PacingRate implements tcp.CongestionControl.
func (m *monitor) PacingRate() int64 { return m.rate }

// CwndBytes implements tcp.CongestionControl: 2 × rate·SRTT, floored.
func (m *monitor) CwndBytes() int {
	rtt := m.srtt
	if rtt == 0 {
		rtt = minMI
	}
	w := int(2 * float64(m.rate) / 8 * float64(rtt) / 1e9)
	if w < 10*netsim.MSS {
		w = 10 * netsim.MSS
	}
	return w
}

// MIController is the monitor-interval rate controller used by Aurora and
// MOCC: once per MI it summarizes congestion signals into features, asks the
// policy for an action through its deployment backend, and applies
//
//	rate ← rate·(1+δa)   if a ≥ 0
//	rate ← rate/(1+δ|a|) if a < 0
//
// It implements tcp.CongestionControl.
type MIController struct {
	monitor

	// Delta is the per-MI rate step δ. Defaults to 0.05.
	Delta float64
	// MinRate/MaxRate clamp the pacing rate (bits/sec).
	MinRate, MaxRate int64
}

// NewMIController returns a controller with paper-calibrated defaults.
func NewMIController(eng *netsim.Engine, backend Backend, initialRate int64) *MIController {
	m := &MIController{
		Delta:   0.05,
		MinRate: 1_000_000,
		MaxRate: 100_000_000_000,
	}
	m.monitor = newMonitor(eng, backend, m, initialRate)
	return m
}

// decide is the rate-step law; OnState sees the action as the policy gave it.
func (m *MIController) decide(action float64) (int64, float64) {
	a := clip(action, -1, 1)
	r := float64(m.rate)
	if a >= 0 {
		r *= 1 + m.Delta*a
	} else {
		r /= 1 + m.Delta*(-a)
	}
	rate := int64(r)
	if rate < m.MinRate {
		rate = m.MinRate
	}
	if rate > m.MaxRate {
		rate = m.MaxRate
	}
	return rate, action
}

var _ tcp.CongestionControl = (*MIController)(nil)

func clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// TeacherPolicy is the hand-crafted rate controller used to pre-train and
// online-tune the NN policies by imitation: probe upward when the path is
// unloaded, back off proportionally to latency inflation, latency growth and
// undelivered bytes. Its equilibrium sits at ~8% latency inflation — a small
// standing queue that fits the testbed's shallow 150 KB bottleneck buffer.
type TeacherPolicy struct{}

// Act implements Policy from the most recent feature triple.
func (TeacherPolicy) Act(state []float64) float64 {
	latGrad := state[StateDim-3]
	latRatio := state[StateDim-2]
	sendRatio := state[StateDim-1]
	a := 0.4 - 5*latRatio - 3*latGrad - 2*sendRatio
	return clip(a, -1, 1)
}

// NNPolicy wraps a float userspace network (the tuned slow-path model).
type NNPolicy struct {
	Net *nn.Network
	out []float64
}

// NewNNPolicy returns a policy backed by net, which must map StateDim → 1.
func NewNNPolicy(net *nn.Network) *NNPolicy {
	if net.InputSize() != StateDim || net.OutputSize() != 1 {
		panic("cc: policy network must map StateDim -> 1")
	}
	return &NNPolicy{Net: net, out: make([]float64, 1)}
}

// Act implements Policy.
func (p *NNPolicy) Act(state []float64) float64 {
	p.Net.Forward(state, p.out)
	return clip(p.out[0], -1, 1)
}

// SnapshotPolicy wraps an integer-quantized snapshot (the kernel fast-path
// model); inference is integer-only.
type SnapshotPolicy struct {
	Prog *quant.Program
	in   []int64
	out  []int64
}

// NewSnapshotPolicy returns a policy backed by prog (StateDim → 1).
func NewSnapshotPolicy(prog *quant.Program) *SnapshotPolicy {
	if prog.InputSize() != StateDim || prog.OutputSize() != 1 {
		panic("cc: snapshot must map StateDim -> 1")
	}
	return &SnapshotPolicy{Prog: prog, in: make([]int64, StateDim), out: make([]int64, 1)}
}

// Act implements Policy.
func (p *SnapshotPolicy) Act(state []float64) float64 {
	for i, x := range state {
		p.in[i] = int64(x * float64(p.Prog.InputScale))
	}
	p.Prog.Infer(p.in, p.out)
	return clip(float64(p.out[0])/float64(p.Prog.OutputScale), -1, 1)
}

// DirectBackend answers queries synchronously — in-kernel inference. The
// optional CPU charge models the integer snapshot's execution cost.
type DirectBackend struct {
	Policy Policy
	CPU    *ksim.CPU
	Cost   netsim.Time
	Cat    ksim.Category
}

// Query implements Backend.
func (d *DirectBackend) Query(state []float64, reply func(float64)) {
	if d.CPU != nil && d.Cost > 0 {
		d.CPU.Charge(d.Cat, d.Cost)
	}
	reply(d.Policy.Act(state))
}

// CCPBackend models the Congestion Control Plane deployment: policy
// inference runs in userspace, and every exchange with the kernel costs two
// cross-space transitions. Interval > 0 batches decisions (CCP-Xms);
// Interval == 0 exchanges on every ACK (CCP-ACK).
type CCPBackend struct {
	Eng      *netsim.Engine
	CPU      *ksim.CPU
	Costs    ksim.Costs
	Policy   Policy
	Interval netsim.Time // 0 = per-ACK
	UserMACs int         // float inference cost basis

	pendingState []float64
	pendingReply func(float64)
	ticking      bool

	// RoundTrips counts kernel↔userspace exchanges (the overhead driver).
	RoundTrips int64
}

// OnAckEvent implements AckObserver: in per-ACK mode every ACK costs a
// cross-space exchange even when no MI decision is due.
func (c *CCPBackend) OnAckEvent() {
	if c.Interval == 0 {
		c.chargePerAck()
	}
}

// chargePerAck books one per-ACK exchange at the unscaled transition cost.
func (c *CCPBackend) chargePerAck() {
	c.RoundTrips++
	if c.CPU != nil {
		c.CPU.Charge(ksim.SoftIRQ, 2*c.Costs.CrossSpacePerAck)
	}
}

// Query implements Backend.
func (c *CCPBackend) Query(state []float64, reply func(float64)) {
	if c.Interval == 0 {
		// Per-ACK mode: the decision rides the next exchange; inference
		// itself still runs in userspace.
		if c.CPU != nil {
			c.CPU.Charge(ksim.User, ksim.InferCost(c.Costs.UserInferPerMAC, c.UserMACs))
		}
		action := c.Policy.Act(state)
		delay := 2 * c.Costs.CrossSpaceLatency
		if c.CPU != nil {
			delay += c.CPU.QueueDelay()
		}
		c.Eng.After(delay, func() { reply(action) })
		return
	}
	// Batched mode: keep only the latest request; CCP coalesces reports.
	c.pendingState = append(c.pendingState[:0], state...)
	c.pendingReply = reply
	if !c.ticking {
		c.ticking = true
		c.tick()
	}
}

func (c *CCPBackend) tick() {
	c.Eng.After(c.Interval, func() {
		if c.pendingReply != nil {
			st, rp := c.pendingState, c.pendingReply
			c.pendingReply = nil
			c.dispatch(st, rp)
		} else {
			// CCP pushes a congestion report across the boundary every
			// interval whether or not a new decision is due; the exchange
			// cost is unconditional (§2.2).
			c.chargeRoundTrip()
		}
		c.tick()
	})
}

func (c *CCPBackend) chargeRoundTrip() {
	c.RoundTrips++
	if c.CPU != nil {
		c.CPU.Charge(ksim.SoftIRQ, 2*c.Costs.CrossSpace)
		c.CPU.Charge(ksim.User, ksim.InferCost(c.Costs.UserInferPerMAC, c.UserMACs))
	}
}

// dispatch performs one kernel→user→kernel exchange and delivers the action
// after the transition latency.
func (c *CCPBackend) dispatch(state []float64, reply func(float64)) {
	c.chargeRoundTrip()
	delay := 2 * c.Costs.CrossSpaceLatency
	if c.CPU != nil {
		delay += c.CPU.QueueDelay()
	}
	action := c.Policy.Act(state) // userspace compute; cost charged above
	c.Eng.After(delay, func() { reply(action) })
}

var (
	_ Backend     = (*DirectBackend)(nil)
	_ Backend     = (*CCPBackend)(nil)
	_ AckObserver = (*CCPBackend)(nil)
)
