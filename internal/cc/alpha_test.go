package cc

import (
	"math"
	"math/rand"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

func TestAlphaControllerAppliesFraction(t *testing.T) {
	eng := netsim.NewEngine()
	b := &DirectBackend{Policy: PolicyFunc(func([]float64) float64 { return 0.4 })}
	m := NewAlphaController(eng, b, 1_000_000_000, 0.9)
	if m.PacingRate() != 900_000_000 {
		t.Errorf("initial rate = %d, want 0.9 of line", m.PacingRate())
	}
	m.Start(0)
	eng.RunUntil(50 * netsim.Millisecond)
	m.Stop()
	if m.PacingRate() != 400_000_000 {
		t.Errorf("rate = %d, want 0.4 of line after decisions", m.PacingRate())
	}
	if m.curAlpha != 0.4 {
		t.Errorf("Alpha = %v", m.curAlpha)
	}
}

func TestAlphaControllerClamps(t *testing.T) {
	eng := netsim.NewEngine()
	hi := NewAlphaController(eng, &DirectBackend{Policy: PolicyFunc(func([]float64) float64 { return 7 })}, 1e9, 0.5)
	hi.Start(0)
	eng.RunUntil(20 * netsim.Millisecond)
	hi.Stop()
	if hi.curAlpha != 1 {
		t.Errorf("alpha must clamp to 1, got %v", hi.curAlpha)
	}
	lo := NewAlphaController(eng, &DirectBackend{Policy: PolicyFunc(func([]float64) float64 { return -3 })}, 1e9, 0.5)
	lo.Start(eng.Now())
	eng.RunUntil(eng.Now() + 20*netsim.Millisecond)
	lo.Stop()
	if lo.curAlpha != minAlpha {
		t.Errorf("alpha must clamp to minAlpha, got %v", lo.curAlpha)
	}
	// The pacing rate itself floors at 1 Mbps.
	if lo.PacingRate() < 1_000_000 {
		t.Errorf("rate floor broken: %d", lo.PacingRate())
	}
}

func TestAlphaControllerOnStateAndFeatures(t *testing.T) {
	eng := netsim.NewEngine()
	m := NewAlphaController(eng, &DirectBackend{Policy: PolicyFunc(func([]float64) float64 { return 0.5 })}, 1e9, 0.5)
	var states int
	var lastMI MISummary
	m.OnState = func(s []float64, a float64, mi MISummary) {
		states++
		lastMI = mi
		if len(s) != StateDim {
			t.Fatalf("state dim %d", len(s))
		}
		if a != 0.5 {
			t.Fatalf("alpha %v", a)
		}
	}
	m.Start(0)
	// Feed some ACKs so the MI summaries carry data.
	eng.After(netsim.Millisecond, func() {
		m.OnAck(tcp.AckInfo{Now: eng.Now(), RTT: 10 * netsim.Millisecond,
			SRTT: 10 * netsim.Millisecond, AckedBytes: 14480})
	})
	m.OnLoss(tcp.LossInfo{Now: 0, LostBytes: 1448})
	eng.RunUntil(100 * netsim.Millisecond)
	m.Stop()
	if states == 0 {
		t.Fatal("OnState must fire")
	}
	if lastMI.End <= lastMI.Start {
		t.Error("MI summary must cover an interval")
	}
	if m.MIs == 0 {
		t.Error("MI counter must advance")
	}
}

func TestAlphaControllerCwnd(t *testing.T) {
	eng := netsim.NewEngine()
	m := NewAlphaController(eng, &DirectBackend{Policy: PolicyFunc(func([]float64) float64 { return 1 })}, 1e9, 1)
	// No SRTT yet: floor applies.
	if m.CwndBytes() < 10*netsim.MSS {
		t.Error("cwnd floor broken")
	}
	m.OnAck(tcp.AckInfo{SRTT: 10 * netsim.Millisecond})
	// 2 × 1 Gbps × 10 ms = 2.5 MB.
	want := int(2 * 1e9 / 8 * 0.01)
	if got := m.CwndBytes(); got < want*9/10 || got > want*11/10 {
		t.Errorf("cwnd = %d, want ≈ %d", got, want)
	}
}

func TestCalmStateIsCalm(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		s := CalmState(r)
		if len(s) != StateDim {
			t.Fatal("dim")
		}
		for _, v := range s {
			if math.Abs(v) > 0.3 {
				t.Fatalf("calm state has extreme feature %v", v)
			}
		}
	}
}

func TestPretrainAlphaHitsTargetEverywhere(t *testing.T) {
	net := NewAuroraAlphaNet(5)
	loss := PretrainAlpha(net, 0.3, 300, 6)
	if loss > 0.01 {
		t.Fatalf("pretrain loss %v", loss)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		var s []float64
		if i%2 == 0 {
			s = CalmState(r)
		} else {
			s = RandomState(r)
		}
		got := net.Infer(s)[0]
		if math.Abs(got-0.3) > 0.12 {
			t.Errorf("pretrained output %v at sample %d, want ≈ 0.3", got, i)
		}
	}
}

func TestMOCCAlphaNetArchitecture(t *testing.T) {
	n := NewMOCCAlphaNet(1)
	if n.Layers[0].Out != 64 || n.Layers[1].Out != 32 {
		t.Error("MOCC must have 64/32 hidden layers")
	}
	a := NewAuroraAlphaNet(1)
	if a.Layers[0].Out != 32 || a.Layers[1].Out != 16 {
		t.Error("Aurora must have 32/16 hidden layers")
	}
	// Sigmoid heads keep α in (0, 1).
	out := a.Infer(make([]float64, StateDim))[0]
	if out <= 0 || out >= 1 {
		t.Errorf("alpha head out of range: %v", out)
	}
}

// The two monitor-interval controllers as they stood before they were built
// on one body, frozen as oracles: endMI, the rate laws, PacingRate and
// CwndBytes are verbatim, the accumulators they read are shared here because
// the per-ACK side never differed.
type oracleAcc struct {
	eng     *netsim.Engine
	backend Backend
	minMI   netsim.Time
	onState func(state []float64, shown float64, mi MISummary)

	srtt       netsim.Time
	history    [StateDim]float64
	state      [StateDim]float64
	minRTT     netsim.Time
	miStart    netsim.Time
	rttSum     netsim.Time
	rttCount   int
	ackedBytes int
	lostBytes  int
	prevAvgRTT netsim.Time
	running    bool
	mis        int64
}

func (m *oracleAcc) OnAck(a tcp.AckInfo) {
	m.srtt = a.SRTT
	if a.RTT > 0 {
		m.rttSum += a.RTT
		m.rttCount++
		if a.RTT < m.minRTT {
			m.minRTT = a.RTT
		}
	}
	m.ackedBytes += a.AckedBytes
}

func (m *oracleAcc) OnLoss(l tcp.LossInfo) { m.lostBytes += l.LostBytes }

type oracleAlpha struct {
	oracleAcc
	lineRate int64
	minAlpha float64
	curAlpha float64
}

func (m *oracleAlpha) Start(now netsim.Time) {
	m.running = true
	m.miStart = now
	m.schedule()
}

func (m *oracleAlpha) schedule() {
	if !m.running {
		return
	}
	d := m.srtt
	if d < m.minMI {
		d = m.minMI
	}
	m.eng.After(d, m.endMI)
}

func (m *oracleAlpha) endMI() {
	if !m.running {
		return
	}
	now := m.eng.Now()
	dur := now - m.miStart
	if dur <= 0 {
		dur = 1
	}
	avgRTT := m.prevAvgRTT
	if m.rttCount > 0 {
		avgRTT = m.rttSum / netsim.Time(m.rttCount)
	}
	var latGrad float64
	if m.prevAvgRTT > 0 && avgRTT > 0 {
		latGrad = float64(avgRTT-m.prevAvgRTT) / float64(dur)
	}
	latRatio := 0.0
	if m.minRTT < 1<<62 && avgRTT > 0 {
		latRatio = float64(avgRTT)/float64(m.minRTT) - 1
	}
	sent := float64(m.PacingRate()) * float64(dur) / 1e9 / 8
	acked := float64(m.ackedBytes)
	sendRatio := 0.0
	if acked > 1 {
		sendRatio = sent/acked - 1
	} else if sent > float64(netsim.MSS) {
		sendRatio = 5
	}
	copy(m.history[:], m.history[FeatureDim:])
	m.history[StateDim-3] = clip(latGrad*20, -1, 1)
	m.history[StateDim-2] = clip(latRatio, -1, 5)
	m.history[StateDim-1] = clip(sendRatio, -1, 5)
	copy(m.state[:], m.history[:])

	summary := MISummary{
		Start: m.miStart, End: now, AvgRTT: avgRTT, MinRTT: m.minRTT,
		AckedBytes: m.ackedBytes, LostBytes: m.lostBytes,
	}
	if rate := m.PacingRate(); rate > 0 {
		summary.Utilization = acked * 8 / (float64(rate) * float64(dur) / 1e9)
	}

	m.prevAvgRTT = avgRTT
	m.miStart = now
	m.rttSum, m.rttCount = 0, 0
	m.ackedBytes, m.lostBytes = 0, 0
	m.mis++

	state := m.state[:]
	m.backend.Query(state, func(alpha float64) {
		m.curAlpha = clip(alpha, m.minAlpha, 1)
		if m.onState != nil {
			m.onState(state, m.curAlpha, summary)
		}
	})
	m.schedule()
}

func (m *oracleAlpha) PacingRate() int64 {
	r := int64(m.curAlpha * float64(m.lineRate))
	if r < 1_000_000 {
		r = 1_000_000
	}
	return r
}

func (m *oracleAlpha) CwndBytes() int {
	rtt := m.srtt
	if rtt == 0 {
		rtt = m.minMI
	}
	w := int(2 * float64(m.PacingRate()) / 8 * float64(rtt) / 1e9)
	if w < 10*netsim.MSS {
		w = 10 * netsim.MSS
	}
	return w
}

type oracleMI struct {
	oracleAcc
	delta            float64
	minRate, maxRate int64
	rate             int64
}

func (m *oracleMI) Start(now netsim.Time) {
	m.running = true
	m.miStart = now
	m.scheduleMI()
}

func (m *oracleMI) miDuration() netsim.Time {
	d := m.srtt
	if d < m.minMI {
		d = m.minMI
	}
	return d
}

func (m *oracleMI) scheduleMI() {
	if !m.running {
		return
	}
	m.eng.After(m.miDuration(), m.endMI)
}

func (m *oracleMI) endMI() {
	if !m.running {
		return
	}
	now := m.eng.Now()
	dur := now - m.miStart
	if dur <= 0 {
		dur = 1
	}

	avgRTT := m.prevAvgRTT
	if m.rttCount > 0 {
		avgRTT = m.rttSum / netsim.Time(m.rttCount)
	}

	var latGrad float64
	if m.prevAvgRTT > 0 && avgRTT > 0 {
		latGrad = float64(avgRTT-m.prevAvgRTT) / float64(dur)
	}
	latRatio := 0.0
	if m.minRTT < 1<<62 && avgRTT > 0 {
		latRatio = float64(avgRTT)/float64(m.minRTT) - 1
	}
	sent := float64(m.rate) * float64(dur) / 1e9 / 8
	acked := float64(m.ackedBytes)
	sendRatio := 0.0
	if acked > 1 {
		sendRatio = sent/acked - 1
	} else if sent > float64(netsim.MSS) {
		sendRatio = 5
	}

	f := [FeatureDim]float64{
		clip(latGrad*20, -1, 1),
		clip(latRatio, -1, 5),
		clip(sendRatio, -1, 5),
	}

	copy(m.history[:], m.history[FeatureDim:])
	copy(m.history[StateDim-FeatureDim:], f[:])
	copy(m.state[:], m.history[:])

	summary := MISummary{
		Start: m.miStart, End: now,
		AvgRTT: avgRTT, MinRTT: m.minRTT,
		AckedBytes: m.ackedBytes, LostBytes: m.lostBytes,
	}
	if m.rate > 0 {
		summary.Utilization = acked * 8 / (float64(m.rate) * float64(dur) / 1e9)
	}

	m.prevAvgRTT = avgRTT
	m.miStart = now
	m.rttSum, m.rttCount = 0, 0
	m.ackedBytes, m.lostBytes = 0, 0
	m.mis++

	state := m.state[:]
	m.backend.Query(state, func(action float64) {
		m.applyAction(action)
		if m.onState != nil {
			m.onState(state, action, summary)
		}
	})
	m.scheduleMI()
}

func (m *oracleMI) applyAction(a float64) {
	a = clip(a, -1, 1)
	r := float64(m.rate)
	if a >= 0 {
		r *= 1 + m.delta*a
	} else {
		r /= 1 + m.delta*(-a)
	}
	m.rate = int64(r)
	if m.rate < m.minRate {
		m.rate = m.minRate
	}
	if m.rate > m.maxRate {
		m.rate = m.maxRate
	}
}

func (m *oracleMI) PacingRate() int64 { return m.rate }

func (m *oracleMI) CwndBytes() int {
	rtt := m.srtt
	if rtt == 0 {
		rtt = m.minMI
	}
	w := int(2 * float64(m.rate) / 8 * float64(rtt) / 1e9)
	if w < 10*netsim.MSS {
		w = 10 * netsim.MSS
	}
	return w
}

// miRecord is everything a controller shows about one monitor interval, floats
// as bits. rate and cwnd are read inside OnState, after the law has run.
type miRecord struct {
	state       [StateDim]uint64
	shown       uint64
	mi          MISummary
	utilization uint64
	rate        int64
	cwnd        int
}

// miScript drives one controller on its own engine through a fixed ACK / loss
// / timer sequence and returns a record per monitor interval. The policy
// answers actions[k % len] at the k-th interval. The script covers a steady
// path, RTT inflation, a lossy interval, intervals in which nothing is acked
// (with and without enough sent to count as distress), and ACKs that carry no
// RTT sample.
func miScript(actions []float64, build func(*netsim.Engine, Backend, func(state []float64, shown float64, mi MISummary)) tcp.CongestionControl) []miRecord {
	eng := netsim.NewEngine()
	var recs []miRecord
	var ctrl tcp.CongestionControl
	k := 0
	backend := &DirectBackend{Policy: PolicyFunc(func([]float64) float64 {
		k++
		return actions[(k-1)%len(actions)]
	})}
	ctrl = build(eng, backend, func(state []float64, shown float64, mi MISummary) {
		r := miRecord{shown: math.Float64bits(shown), utilization: math.Float64bits(mi.Utilization),
			rate: ctrl.PacingRate(), cwnd: ctrl.CwndBytes()}
		mi.Utilization = 0
		r.mi = mi
		for i, v := range state {
			r.state[i] = math.Float64bits(v)
		}
		recs = append(recs, r)
	})
	ack := func(at, rtt, srtt netsim.Time, bytes int) {
		eng.At(at, func() { ctrl.OnAck(tcp.AckInfo{Now: at, RTT: rtt, SRTT: srtt, AckedBytes: bytes}) })
	}
	const ms, us = netsim.Millisecond, netsim.Microsecond
	for t := 500 * us; t < 20*ms; t += 500 * us { // steady: 10 ms RTT
		ack(t, 10*ms, 10*ms, 14480)
	}
	for t := 20 * ms; t < 40*ms; t += 500 * us { // RTT inflates 10 → 20 ms
		rtt := 10*ms + (t-20*ms)/2
		ack(t, rtt, (10*ms+rtt)/2, 14480)
	}
	for t := 40 * ms; t < 60*ms; t += ms { // lossy
		ack(t, 18*ms, 16*ms, 4344)
		eng.At(t+300*us, func() { ctrl.OnLoss(tcp.LossInfo{LostBytes: 1448 * 3}) })
	}
	// 60–100 ms: silence, so intervals close with nothing acked.
	for t := 100 * ms; t < 120*ms; t += 2 * ms { // ACKs without an RTT sample
		ack(t, 0, 12*ms, 1)
	}
	for t := 120 * ms; t < 150*ms; t += 700 * us { // recovery at a shorter RTT
		ack(t, 6*ms, 7*ms, 28960)
	}
	ctrl.Start(0)
	eng.RunUntil(150 * ms)
	return recs
}

func compareMIRecords(t *testing.T, got, want []miRecord) {
	t.Helper()
	if len(got) != len(want) || len(want) < 10 {
		t.Fatalf("%d monitor intervals, oracle has %d (want ≥ 10)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("monitor interval %d differs:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

// TestAlphaControllerMatchesFrozenOracle: the α law on the shared
// monitor-interval body is bit-identical to the controller it replaced — state
// vector, α shown to OnState, pacing rate, cwnd and every MISummary field per
// interval, with α clamped at both ends along the way.
func TestAlphaControllerMatchesFrozenOracle(t *testing.T) {
	actions := []float64{0.4, 7, -3, 0.5, 0.005, 0.0004, 1, 0.62}
	var product *AlphaController
	got := miScript(actions, func(eng *netsim.Engine, b Backend, on func([]float64, float64, MISummary)) tcp.CongestionControl {
		product = NewAlphaController(eng, b, 1_000_000_000, 0.28)
		product.OnState = on
		return product
	})
	var oracle *oracleAlpha
	want := miScript(actions, func(eng *netsim.Engine, b Backend, on func([]float64, float64, MISummary)) tcp.CongestionControl {
		oracle = &oracleAlpha{lineRate: 1_000_000_000, minAlpha: 0.01, curAlpha: 0.28,
			oracleAcc: oracleAcc{eng: eng, backend: b, minMI: 2 * netsim.Millisecond, minRTT: 1 << 62, onState: on}}
		return oracle
	})
	compareMIRecords(t, got, want)
	if product.MIs != oracle.mis || math.Float64bits(product.curAlpha) != math.Float64bits(oracle.curAlpha) {
		t.Errorf("final MIs/α = %d/%v, oracle %d/%v", product.MIs, product.curAlpha, oracle.mis, oracle.curAlpha)
	}
	var sawLo, sawHi bool
	for _, r := range got {
		sawLo = sawLo || math.Float64frombits(r.shown) == 0.01
		sawHi = sawHi || math.Float64frombits(r.shown) == 1
	}
	if !sawLo || !sawHi {
		t.Errorf("script must clamp α at both ends (low %v, high %v)", sawLo, sawHi)
	}
}

// TestMIControllerMatchesFrozenOracle is the same script under the rate-step
// law, with MinRate and MaxRate both reached.
func TestMIControllerMatchesFrozenOracle(t *testing.T) {
	actions := []float64{0.7, 1, 2, -0.5, -2, -1, -1, 0, 1, 0.3}
	var product *MIController
	got := miScript(actions, func(eng *netsim.Engine, b Backend, on func([]float64, float64, MISummary)) tcp.CongestionControl {
		product = NewMIController(eng, b, 100_000_000)
		product.Delta, product.MinRate, product.MaxRate = 0.25, 90_000_000, 160_000_000
		product.OnState = on
		return product
	})
	var oracle *oracleMI
	want := miScript(actions, func(eng *netsim.Engine, b Backend, on func([]float64, float64, MISummary)) tcp.CongestionControl {
		oracle = &oracleMI{delta: 0.25, minRate: 90_000_000, maxRate: 160_000_000, rate: 100_000_000,
			oracleAcc: oracleAcc{eng: eng, backend: b, minMI: 2 * netsim.Millisecond, minRTT: 1 << 62, onState: on}}
		return oracle
	})
	compareMIRecords(t, got, want)
	if product.MIs != oracle.mis {
		t.Errorf("%d MIs, oracle %d", product.MIs, oracle.mis)
	}
	var sawLo, sawHi bool
	for _, r := range got {
		sawLo = sawLo || r.rate == 90_000_000
		sawHi = sawHi || r.rate == 160_000_000
	}
	if !sawLo || !sawHi {
		t.Errorf("script must reach MinRate and MaxRate (low %v, high %v)", sawLo, sawHi)
	}
}
