package cc

import (
	"math"
	"math/rand"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

// bottleneckScenario is the testbed analog of §2.2: sender A → switch S →
// receiver B with a 1 Gbps bottleneck, ~10 ms RTT, 150 KB buffer, and
// 0.1 Gbps of background UDP sharing the bottleneck.
type bottleneckScenario struct {
	eng        *netsim.Engine
	a, b, c    *tcp.Host
	sender     *tcp.Sender
	receiver   *tcp.Receiver
	goodput    *int64 // payload bytes delivered
	bottleneck *netsim.Link
}

func newBottleneck(ctrl tcp.CongestionControl, withUDP bool) *bottleneckScenario {
	eng := netsim.NewEngine()
	a := tcp.NewHost(eng, 1)
	b := tcp.NewHost(eng, 2)
	c := tcp.NewHost(eng, 3)
	s := netsim.NewSwitch(10)

	// Access links 10 Gbps / 2.5 ms; bottleneck 1 Gbps / 2.5 ms, 150 KB.
	aUp := netsim.NewLink(eng, s, 10e9, 2500*netsim.Microsecond, netsim.NewDropTail(1<<22))
	cUp := netsim.NewLink(eng, s, 10e9, 2500*netsim.Microsecond, netsim.NewDropTail(1<<22))
	down := netsim.NewLink(eng, b, 1e9, 2500*netsim.Microsecond, netsim.NewDropTail(150_000))
	bUp := netsim.NewLink(eng, s, 10e9, 2500*netsim.Microsecond, netsim.NewDropTail(1<<22))
	toA := netsim.NewLink(eng, a, 10e9, 2500*netsim.Microsecond, netsim.NewDropTail(1<<22))
	toC := netsim.NewLink(eng, c, 10e9, 2500*netsim.Microsecond, netsim.NewDropTail(1<<22))

	a.SetEgress(aUp)
	b.SetEgress(bUp)
	c.SetEgress(cUp)
	s.AddPort(1, toA)
	s.AddPort(2, down)
	s.AddPort(3, toC)
	s.AddRoute(1, 1)
	s.AddRoute(2, 2)
	s.AddRoute(3, 3)

	sc := &bottleneckScenario{eng: eng, a: a, b: b, c: c, bottleneck: down, goodput: new(int64)}
	sc.sender = tcp.NewSender(a, 1, b.ID, 0, ctrl)
	sc.receiver = tcp.NewReceiver(b, 1, a.ID)
	sc.receiver.OnDeliver = func(n int, now netsim.Time) { *sc.goodput += int64(n) }
	if withUDP {
		u := tcp.NewUDPSource(c, 99, b.ID, 100_000_000)
		u.Start()
	}
	return sc
}

// goodputGbps runs the scenario for dur and returns the goodput in Gbps
// measured after a warmup period.
func (sc *bottleneckScenario) goodputGbps(warmup, dur netsim.Time) float64 {
	sc.sender.Start()
	sc.eng.RunUntil(warmup)
	*sc.goodput = 0
	sc.eng.RunUntil(warmup + dur)
	return float64(*sc.goodput*8) / float64(dur) // bytes*8/ns = Gbps... (b/ns == Gb/s)
}

func TestCubicUtilizesBottleneck(t *testing.T) {
	sc := newBottleneck(NewCubic(), false)
	g := sc.goodputGbps(2*netsim.Second, 3*netsim.Second)
	if g < 0.6 || g > 1.0 {
		t.Errorf("CUBIC goodput = %.3f Gbps, want 0.6–1.0", g)
	}
}

func TestCubicBacksOffOnLoss(t *testing.T) {
	c := NewCubic()
	c.Start(0)
	c.OnAck(tcp.AckInfo{Now: 1, SRTT: 10 * netsim.Millisecond, AckedBytes: netsim.MSS})
	before := c.CwndBytes()
	c.OnLoss(tcp.LossInfo{Now: 2})
	after := c.CwndBytes()
	if float64(after) > float64(before)*cubicBeta+1 {
		t.Errorf("cwnd after loss = %d, want ≈ %.0f", after, float64(before)*cubicBeta)
	}
	// Second loss within the same window: no further reduction.
	c.OnLoss(tcp.LossInfo{Now: 3})
	if c.CwndBytes() != after {
		t.Error("second loss in the same RTT must not reduce again")
	}
	// Timeout collapses to minimum.
	c.OnLoss(tcp.LossInfo{Now: 100 * netsim.Millisecond, Timeout: true})
	if c.CwndBytes() != 2*netsim.MSS {
		t.Errorf("timeout cwnd = %d, want %d", c.CwndBytes(), 2*netsim.MSS)
	}
}

func TestBBRUtilizesBottleneck(t *testing.T) {
	sc := newBottleneck(NewBBR(), false)
	g := sc.goodputGbps(2*netsim.Second, 3*netsim.Second)
	if g < 0.6 || g > 1.05 {
		t.Errorf("BBR goodput = %.3f Gbps, want 0.6–1.05", g)
	}
}

func TestBBRExitsStartup(t *testing.T) {
	b := NewBBR()
	b.Start(0)
	now := netsim.Time(0)
	for i := 0; i < 100; i++ {
		now += 10 * netsim.Millisecond
		b.OnAck(tcp.AckInfo{Now: now, RTT: 10 * netsim.Millisecond,
			SRTT: 10 * netsim.Millisecond, AckedBytes: netsim.MSS,
			DeliveryRate: 500_000_000})
	}
	if b.state == 0 {
		t.Error("BBR must exit startup once bandwidth plateaus")
	}
	if b.PacingRate() > 800_000_000 {
		t.Errorf("post-startup rate = %d, want ≈ btlBw·gain ≤ 1.25×500M", b.PacingRate())
	}
}

// scanFilter is the windowed max maxFilter replaced — keep every sample, drop
// the expired prefix on add, scan on max — kept as its oracle.
type scanFilter struct {
	window  netsim.Time
	samples []bwSample
}

func (f *scanFilter) add(at netsim.Time, v int64) {
	f.samples = append(f.samples, bwSample{at, v})
	i := 0
	for i < len(f.samples) && f.samples[i].at < at-f.window {
		i++
	}
	f.samples = f.samples[i:]
}

func (f *scanFilter) max() int64 {
	var m int64
	for _, s := range f.samples {
		if s.v > m {
			m = s.v
		}
	}
	return m
}

func TestMaxFilterMatchesScan(t *testing.T) {
	var empty maxFilter
	if empty.max() != 0 {
		t.Errorf("empty filter: max %d, want 0", empty.max())
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		// A short window expires often; a long one lets a falling stretch,
		// where nothing is dominated, grow the ring past its first size.
		window := netsim.Time(1 + r.Intn(50))
		if seed%2 == 0 {
			window = 400
		}
		got, want := maxFilter{window: window}, scanFilter{window: window}
		var at netsim.Time
		for i := 0; i < 2000; i++ {
			// Bursts at one instant, small steps, and gaps up to three windows
			// (which expire the current max, or everything but the new sample);
			// few distinct values, so equal ones are common. Every 500th
			// sample starts a falling stretch of 100.
			v := int64(r.Intn(12)) - 2
			if i%500 >= 400 {
				at, v = at+1, int64(1000-i)
			} else {
				switch r.Intn(4) {
				case 1:
					at += netsim.Time(r.Intn(4))
				case 2:
					at += window / 2
				case 3:
					at += netsim.Time(r.Intn(int(3 * window)))
				}
			}
			got.add(at, v)
			want.add(at, v)
			if got.max() != want.max() {
				t.Fatalf("seed %d, sample %d (at %d, v %d): max %d, scan says %d", seed, i, at, v, got.max(), want.max())
			}
		}
		if window == 400 && len(got.ring) < 128 {
			t.Errorf("seed %d: ring never grew past %d; the falling stretches should fill 100 slots", seed, len(got.ring))
		}
	}
}

func TestDCTCPKeepsQueuesShortWithECN(t *testing.T) {
	// DCTCP against an ECN-marking bottleneck must hold utilization with
	// minimal drops.
	eng := netsim.NewEngine()
	a := tcp.NewHost(eng, 1)
	b := tcp.NewHost(eng, 2)
	q := netsim.NewECNQueue(1<<20, 30_000)
	fwd := netsim.NewLink(eng, b, 1e9, 50*netsim.Microsecond, q)
	rev := netsim.NewLink(eng, a, 1e9, 50*netsim.Microsecond, netsim.NewDropTail(1<<20))
	a.SetEgress(fwd)
	b.SetEgress(rev)
	ctrl := NewDCTCP()
	s := tcp.NewSender(a, 1, b.ID, 0, ctrl)
	r := tcp.NewReceiver(b, 1, a.ID)
	var delivered int64
	r.OnDeliver = func(n int, now netsim.Time) { delivered += int64(n) }
	s.Start()
	eng.RunUntil(500 * netsim.Millisecond)
	gbps := float64(delivered*8) / 0.5e9
	if gbps < 0.5 {
		t.Errorf("DCTCP goodput = %.3f Gbps, want ≥ 0.5", gbps)
	}
	if q.Drops() > 20 {
		t.Errorf("DCTCP should avoid drops with ECN, got %d", q.Drops())
	}
	if ctrl.alpha > 0.9 {
		t.Errorf("alpha should fall below 0.9 in steady state, got %.3f", ctrl.alpha)
	}
}

func TestTeacherControllerConverges(t *testing.T) {
	eng := netsim.NewEngine()
	_ = eng
	sc := newBottleneck(nil, true)
	ctrl := NewMIController(sc.eng, &DirectBackend{Policy: TeacherPolicy{}}, 100_000_000)
	// Swap in the controller (scenario built with nil CC placeholder).
	sc.sender = tcp.NewSender(sc.a, 1, sc.b.ID, 0, ctrl)
	sc.receiver = tcp.NewReceiver(sc.b, 1, sc.a.ID)
	sc.receiver.OnDeliver = func(n int, now netsim.Time) { *sc.goodput += int64(n) }
	g := sc.goodputGbps(3*netsim.Second, 3*netsim.Second)
	ctrl.Stop()
	if g < 0.6 || g > 0.95 {
		t.Errorf("teacher-controlled goodput = %.3f Gbps, want 0.6–0.95 (bottleneck 0.9 after UDP)", g)
	}
	if ctrl.MIs < 100 {
		t.Errorf("controller ran %d MIs, want ≥ 100", ctrl.MIs)
	}
}

func TestPretrainedAuroraImitatesTeacher(t *testing.T) {
	net := NewAuroraNet(1)
	loss := Pretrain(net, 400, 2)
	if loss > 0.01 {
		t.Fatalf("pretrain loss = %v, want ≤ 0.01", loss)
	}
	teacher := TeacherPolicy{}
	policy := NewNNPolicy(net)
	r := rand.New(rand.NewSource(3))
	var mae float64
	const trials = 200
	for i := 0; i < trials; i++ {
		s := RandomState(r)
		mae += math.Abs(policy.Act(s) - teacher.Act(s))
	}
	mae /= trials
	if mae > 0.12 {
		t.Errorf("pretrained policy MAE vs teacher = %.3f, want ≤ 0.12", mae)
	}
}

// TestSnapshotPolicyMatchesFloatPolicy: the integer snapshot of a pretrained
// Aurora policy, scaled in and out as the kernel fast path does, acts within
// 0.05 of the float policy.
func TestSnapshotPolicyMatchesFloatPolicy(t *testing.T) {
	net := NewAuroraNet(5)
	Pretrain(net, 200, 6)
	float := NewNNPolicy(net)
	prog := quant.Quantize(net, quant.DefaultConfig())
	in, out := make([]int64, StateDim), make([]int64, 1)
	snap := func(state []float64) float64 {
		prog.QuantizeInput(state, in)
		prog.Infer(in, out)
		return clip(float64(out[0])/float64(prog.OutputScale), -1, 1)
	}
	r := rand.New(rand.NewSource(7))
	var worst float64
	for i := 0; i < 200; i++ {
		s := RandomState(r)
		d := math.Abs(float.Act(s) - snap(s))
		if d > worst {
			worst = d
		}
	}
	if worst > 0.05 {
		t.Errorf("worst float-vs-snapshot action gap = %.4f, want ≤ 0.05", worst)
	}
}

func TestNNControllerAchievesGoodput(t *testing.T) {
	net := NewAuroraNet(1)
	Pretrain(net, 400, 2)
	sc := newBottleneck(nil, true)
	ctrl := NewMIController(sc.eng, &DirectBackend{Policy: NewNNPolicy(net)}, 100_000_000)
	sc.sender = tcp.NewSender(sc.a, 1, sc.b.ID, 0, ctrl)
	sc.receiver = tcp.NewReceiver(sc.b, 1, sc.a.ID)
	sc.receiver.OnDeliver = func(n int, now netsim.Time) { *sc.goodput += int64(n) }
	g := sc.goodputGbps(3*netsim.Second, 3*netsim.Second)
	ctrl.Stop()
	if g < 0.55 {
		t.Errorf("NN-controlled goodput = %.3f Gbps, want ≥ 0.55", g)
	}
}

func TestCCPLargeIntervalDegradesGoodput(t *testing.T) {
	// Figure 1a's shape: a 100 ms control interval must lose goodput
	// relative to in-kernel (direct) decisions under the same policy.
	run := func(backend Backend) float64 {
		sc := newBottleneck(nil, true)
		if c, ok := backend.(*CCPBackend); ok {
			c.Eng = sc.eng
		}
		ctrl := NewMIController(sc.eng, backend, 100_000_000)
		sc.sender = tcp.NewSender(sc.a, 1, sc.b.ID, 0, ctrl)
		sc.receiver = tcp.NewReceiver(sc.b, 1, sc.a.ID)
		sc.receiver.OnDeliver = func(n int, now netsim.Time) { *sc.goodput += int64(n) }
		g := sc.goodputGbps(3*netsim.Second, 4*netsim.Second)
		ctrl.Stop()
		return g
	}
	direct := run(&DirectBackend{Policy: TeacherPolicy{}})
	stale := run(&CCPBackend{Policy: TeacherPolicy{}, Interval: 100 * netsim.Millisecond,
		Costs: ksim.DefaultCosts()})
	if stale >= direct {
		t.Errorf("100ms CCP goodput %.3f must trail direct %.3f", stale, direct)
	}
	if stale > direct*0.97 {
		t.Errorf("100ms CCP should lose noticeably: %.3f vs %.3f", stale, direct)
	}
}

func TestCCPPerAckChargesPerAck(t *testing.T) {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	b := &CCPBackend{Eng: eng, CPU: cpu, Costs: ksim.DefaultCosts(),
		Policy: TeacherPolicy{}, Interval: 0, UserMACs: 1500}
	for i := 0; i < 100; i++ {
		b.OnAckEvent()
	}
	// Each exchange charges 2·CrossSpacePerAck of softirq time.
	if got, want := cpu.BusyTime(ksim.SoftIRQ), 100*2*b.Costs.CrossSpacePerAck; got != want {
		t.Errorf("softirq time = %v, want %v (100 exchanges)", got, want)
	}
	// Decisions themselves run the model in userspace.
	b.Query(make([]float64, StateDim), func(float64) {})
	eng.Run()
	if cpu.BusyTime(ksim.User) == 0 {
		t.Error("per-ACK decisions must charge userspace inference time")
	}
}

func TestCCPBatchedCoalescesQueries(t *testing.T) {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	b := &CCPBackend{Eng: eng, CPU: cpu, Costs: ksim.DefaultCosts(),
		Policy:   PolicyFunc(func(s []float64) float64 { return s[0] }),
		Interval: 50 * netsim.Millisecond}
	var got []float64
	// Three queries within one interval: only the last must be answered.
	b.Query([]float64{1}, func(a float64) { got = append(got, a) })
	b.Query([]float64{2}, func(a float64) { got = append(got, a) })
	b.Query([]float64{3}, func(a float64) { got = append(got, a) })
	eng.RunUntil(60 * netsim.Millisecond)
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("answers = %v, want just the latest query's [3]", got)
	}
	// One exchange, charging 2·CrossSpace of softirq time.
	if got, want := cpu.BusyTime(ksim.SoftIRQ), 2*b.Costs.CrossSpace; got != want {
		t.Errorf("softirq time = %v, want %v (one exchange)", got, want)
	}
}

func TestDirectBackendChargesKernelCost(t *testing.T) {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	d := &DirectBackend{Policy: TeacherPolicy{}, CPU: cpu,
		Cost: 2 * netsim.Microsecond, Cat: ksim.Kernel}
	var acted bool
	d.Query(make([]float64, StateDim), func(a float64) { acted = true })
	if !acted {
		t.Fatal("direct backend must answer synchronously")
	}
	if cpu.BusyTime(ksim.Kernel) != 2*netsim.Microsecond {
		t.Errorf("kernel charge = %d", cpu.BusyTime(ksim.Kernel))
	}
}

func TestMIControllerRateBounds(t *testing.T) {
	eng := netsim.NewEngine()
	up := &DirectBackend{Policy: PolicyFunc(func([]float64) float64 { return 1 })}
	m := NewMIController(eng, up, 1_000_000)
	m.MaxRate = 2_000_000
	m.Start(0)
	eng.RunUntil(netsim.Second)
	m.Stop()
	if m.PacingRate() > 2_000_000 {
		t.Errorf("rate %d exceeds MaxRate", m.PacingRate())
	}
	down := &DirectBackend{Policy: PolicyFunc(func([]float64) float64 { return -1 })}
	m2 := NewMIController(eng, down, 2_000_000)
	m2.MinRate = 1_500_000
	m2.Start(eng.Now())
	eng.RunUntil(eng.Now() + netsim.Second)
	m2.Stop()
	if m2.PacingRate() < 1_500_000 {
		t.Errorf("rate %d under MinRate", m2.PacingRate())
	}
}

func TestMIControllerOnStateHook(t *testing.T) {
	eng := netsim.NewEngine()
	m := NewMIController(eng, &DirectBackend{Policy: TeacherPolicy{}}, 1_000_000)
	var states int
	m.OnState = func(s []float64, a float64, mi MISummary) {
		states++
		if len(s) != StateDim {
			t.Fatalf("state dim %d", len(s))
		}
	}
	m.Start(0)
	eng.RunUntil(100 * netsim.Millisecond)
	m.Stop()
	if states == 0 {
		t.Error("OnState must fire per MI")
	}
}

func TestPolicyConstructorValidation(t *testing.T) {
	small := nn.New([]int{3, 4, 1}, []nn.Activation{nn.Tanh, nn.Tanh}, 1)
	defer func() {
		if recover() == nil {
			t.Error("wrong-dimension policy must panic")
		}
	}()
	NewNNPolicy(small)
}

func TestClip(t *testing.T) {
	if clip(2, -1, 1) != 1 || clip(-2, -1, 1) != -1 || clip(0.5, -1, 1) != 0.5 {
		t.Error("clip broken")
	}
}

func BenchmarkTeacherScenarioSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := newBottleneck(nil, true)
		ctrl := NewMIController(sc.eng, &DirectBackend{Policy: TeacherPolicy{}}, 100_000_000)
		sc.sender = tcp.NewSender(sc.a, 1, sc.b.ID, 0, ctrl)
		sc.receiver = tcp.NewReceiver(sc.b, 1, sc.a.ID)
		sc.sender.Start()
		sc.eng.RunUntil(netsim.Second)
		ctrl.Stop()
	}
}
