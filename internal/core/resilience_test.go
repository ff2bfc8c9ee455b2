package core

import (
	"errors"
	"go/scanner"
	"math"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// watchdogRig is a serviceRig variant with the slow-path watchdog armed.
type watchdogRig struct {
	eng  *netsim.Engine
	core *Core
	ch   *netlink.Channel
	user *userModel
	svc  *Service
}

// newWatchdogRig arms the watchdog with window; inj (nil = none) rides the
// channel.
func newWatchdogRig(t *testing.T, window netsim.Time, inj *fault.Injector) *watchdogRig {
	t.Helper()
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	cfg := DefaultConfig()
	cfg.FlowCacheTimeout = 0
	cfg.WatchdogWindow = window
	c := NewCore(eng, cpu, ksim.DefaultCosts(), cfg)
	base := nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 11)
	if _, err := c.RegisterModel(buildModule(t, base, "m0")); err != nil {
		t.Fatal(err)
	}
	user := &userModel{net: base.Clone(), stability: 1}
	ch := netlink.NewChannel(eng, cpu, ksim.DefaultCosts(), nil)
	ch.SetFaults(inj)
	svc := NewSlowPath(c, ch, user, user, user)
	return &watchdogRig{eng: eng, core: c, ch: ch, user: user, svc: svc}
}

// pushBatch delivers n samples and advances virtual time to just past the
// delivery (bounded, because the armed watchdog reschedules forever).
func (r *watchdogRig) pushBatch(n int) {
	for i := 0; i < n; i++ {
		r.ch.Push(EncodeSample(Sample{Input: []float64{0.1, 0.2, 0.3, 0.4}, At: r.eng.Now()}))
	}
	r.ch.Flush()
	r.eng.RunUntil(r.eng.Now() + 10*netsim.Millisecond)
}

func TestWatchdogDegradesOnSilenceAndRecovers(t *testing.T) {
	window := 100 * netsim.Millisecond
	r := newWatchdogRig(t, window, nil)
	defer r.core.StopWatchdog()

	r.pushBatch(4) // liveness signal
	if r.core.Degraded() {
		t.Fatal("core must not be degraded while batches flow")
	}

	// Park a standby snapshot, then go silent: the watchdog must degrade to
	// the last-good active snapshot and discard the pending standby.
	base2 := nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 12)
	if _, err := r.core.RegisterModel(buildModule(t, base2, "m1")); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(r.eng.Now() + 5*window)
	if !r.core.Degraded() {
		t.Fatal("watchdog must degrade after slow-path silence")
	}
	st := r.core.Stats()
	if st.Degraded != 1 {
		t.Errorf("Degraded = %d, want 1", st.Degraded)
	}
	if r.core.standby != nil {
		t.Error("degrade must discard the pending standby")
	}
	if err := r.core.Activate(); !errors.Is(err, ErrDegraded) {
		t.Errorf("Activate while degraded = %v, want ErrDegraded", err)
	}
	// The fast path keeps answering from the last-good snapshot.
	in := make([]int64, 4)
	out := make([]int64, 1)
	if err := r.core.QueryModel(1, in, out); err != nil {
		t.Errorf("fast path must serve while degraded: %v", err)
	}

	// A batch arriving again recovers the core.
	r.pushBatch(4)
	if r.core.Degraded() {
		t.Error("core must recover once the slow path resumes")
	}
	if got := r.core.Stats().Recovered; got != 1 {
		t.Errorf("Recovered = %d, want 1", got)
	}
}

// TestActivateRejectedWhileDegraded is the regression test for the
// degradation-pin bug: a stalled service's already-queued netlink messages
// could still RegisterModel+Activate a snapshot while the core was degraded,
// violating the "half-delivered update can never be activated" invariant.
// Activation while degraded must return ErrDegraded; the parked standby is
// activatable only after the slow path proves liveness again.
func TestActivateRejectedWhileDegraded(t *testing.T) {
	window := 100 * netsim.Millisecond
	r := newWatchdogRig(t, window, nil)
	defer r.core.StopWatchdog()

	r.pushBatch(4)
	r.eng.RunUntil(r.eng.Now() + 5*window)
	if !r.core.Degraded() {
		t.Fatal("watchdog must degrade after slow-path silence")
	}
	pinned := r.core.Active()

	// A queued update from the stalled service arrives now: install parks a
	// standby, but activation must be refused while the pin holds.
	base2 := nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 13)
	if _, err := r.core.RegisterModel(buildModule(t, base2, "late")); err != nil {
		t.Fatal(err)
	}
	if err := r.core.Activate(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Activate while degraded = %v, want ErrDegraded", err)
	}
	if r.core.Active() != pinned {
		t.Error("degraded core must keep serving the last-good snapshot")
	}

	// Recovery lifts the pin: the deferred standby activates normally.
	r.pushBatch(4)
	if r.core.Degraded() {
		t.Fatal("core must recover once the slow path resumes")
	}
	if err := r.core.Activate(); err != nil {
		t.Fatalf("Activate after recovery = %v", err)
	}
	if r.core.Active() == pinned {
		t.Error("deferred standby must activate after recovery")
	}
}

func TestWatchdogNotArmedWithoutOption(t *testing.T) {
	r := newServiceRig(t) // DefaultConfig: WatchdogWindow 0
	r.pushBatch(4, 1)
	r.eng.RunUntil(r.eng.Now() + 10*netsim.Second)
	if r.core.Degraded() || r.core.Stats().Degraded != 0 {
		t.Error("with a zero WatchdogWindow the core must never degrade")
	}
}

// TestInstallRetrySucceedsAfterTransientFailure: a failed build schedules a
// retry with backoff; when the cause clears, the retry installs.
func TestInstallRetrySucceedsAfterTransientFailure(t *testing.T) {
	r := newWatchdogRig(t, netsim.Second, nil)
	defer r.core.StopWatchdog()
	r.svc.NamePrefix = "bad name" // invalid identifier → codegen failure
	r.svc.tryInstall(0)
	st := r.svc.Stats()
	if st.BuildFailures != 1 || st.InstallRetries != 1 {
		t.Fatalf("want 1 failure + 1 scheduled retry, got %+v", st)
	}
	r.svc.NamePrefix = "recovered" // clear the cause before the backoff ends
	r.eng.RunUntil(r.eng.Now() + 2*netsim.Second)
	st = r.svc.Stats()
	if st.Updates != 1 {
		t.Errorf("retry must install once the cause clears: %+v", st)
	}
	if st.InstallsAbandoned != 0 {
		t.Errorf("nothing must be abandoned: %+v", st)
	}
}

// TestInstallAbandonedAfterRetryBudget: with injected permanent build
// failures, the install is retried Max-1 times then abandoned — and the
// service keeps working.
func TestInstallAbandonedAfterRetryBudget(t *testing.T) {
	inj := fault.New(fault.Profile{BuildFailP: 1}, 3, obs.Scope{})
	r := newWatchdogRig(t, netsim.Second, inj)
	defer r.core.StopWatchdog()
	r.svc.tryInstall(0)
	r.eng.RunUntil(r.eng.Now() + 5*netsim.Second)
	st := r.svc.Stats()
	if st.BuildFailures != 3 || st.InstallRetries != 2 || st.InstallsAbandoned != 1 {
		t.Errorf("want 3 failures, 2 retries, 1 abandoned; got %+v", st)
	}
	if st.Updates != 0 {
		t.Errorf("no snapshot must install under permanent failure: %+v", st)
	}
	// The service is still live: the next batch adapts as usual.
	r.pushBatch(4)
	if r.user.adapted == 0 {
		t.Error("service must keep adapting after an abandoned install")
	}
}

// TestServiceOutageDropsBatches: batches delivered inside an injected outage
// window are dropped wholesale.
func TestServiceOutageDropsBatches(t *testing.T) {
	// First outage window starts in [1ms, 3ms) and lasts 10s: anything after
	// 3ms is guaranteed inside it.
	inj := fault.New(fault.Profile{
		OutagePeriod:   int64(2 * netsim.Millisecond),
		OutageDuration: int64(10 * netsim.Second),
	}, 1, obs.Scope{})
	r := newWatchdogRig(t, netsim.Second, inj)
	defer r.core.StopWatchdog()
	r.eng.RunUntil(5 * netsim.Millisecond)
	r.pushBatch(4)
	st := r.svc.Stats()
	if st.OutageDrops != 1 {
		t.Fatalf("OutageDrops = %d, want 1", st.OutageDrops)
	}
	if st.Batches != 0 || r.user.adapted != 0 {
		t.Error("a crashed service must consume nothing")
	}
}

// TestChannelInjectorReachesService: the injector set on the channel is the
// one the service behind it reads, so one fault.Chaos() injector's Stats
// count both netlink drops and service outages; a nil injector injects
// nothing.
func TestChannelInjectorReachesService(t *testing.T) {
	run := func(inj *fault.Injector) (ServiceStats, netlink.Stats) {
		r := newWatchdogRig(t, netsim.Second, inj)
		defer r.core.StopWatchdog()
		for i := 0; i < 120; i++ { // 6 s: past chaos's first outage
			r.pushBatch(4)
			r.eng.RunUntil(r.eng.Now() + 40*netsim.Millisecond)
		}
		return r.svc.Stats(), r.ch.Stats()
	}
	inj := fault.New(fault.Chaos(), 5, obs.Scope{})
	svc, _ := run(inj)
	if fs := inj.Stats(); fs.Drops == 0 || fs.Outages == 0 {
		t.Errorf("chaos injector on the channel: want netlink drops and service outages, got %+v", fs)
	}
	if svc.OutageDrops == 0 {
		t.Error("the service must read its outages from the channel's injector")
	}
	svc, ch := run(nil)
	if svc.OutageDrops != 0 || svc.Malformed != 0 || ch.Messages != 120*4 {
		t.Errorf("nil injector must inject nothing: service %+v, channel %+v", svc, ch)
	}
}

// TestMalformedMessagesRejected: corrupt payloads in a batch are counted and
// skipped; the healthy remainder still adapts.
func TestMalformedMessagesRejected(t *testing.T) {
	r := newServiceRig(t)
	r.ch.Push(netlink.Message{Kind: netlink.KindSample, Data: []float64{math.NaN(), 1}})
	r.ch.Push(netlink.Message{Kind: netlink.KindSample, Data: []float64{12, 1}})
	r.ch.Push(EncodeSample(Sample{Input: []float64{0.1, 0.2, 0.3, 0.4}}))
	r.ch.Flush()
	r.eng.Run()
	st := r.svc.Stats()
	if st.Malformed != 2 {
		t.Errorf("Malformed = %d, want 2", st.Malformed)
	}
	if st.Samples != 1 {
		t.Errorf("Samples = %d, want the one valid record", st.Samples)
	}
}

func TestParseSampleErrors(t *testing.T) {
	for _, bad := range [][]float64{
		nil,
		{5, 1},
		{-1, 1},
		{math.NaN(), 1},
		{math.Inf(1), 1},
		{1.5, 1, 2},
		{1, math.NaN()},
		{1e308, 1},
	} {
		_, err := ParseSample(netlink.Message{Data: bad})
		if !errors.Is(err, ErrMalformedSample) {
			t.Errorf("ParseSample(%v) = %v, want ErrMalformedSample", bad, err)
		}
	}
	s, err := ParseSample(EncodeSample(Sample{Input: []float64{1, 2}, Aux: []float64{3}, At: 9}))
	if err != nil || len(s.Input) != 2 || len(s.Aux) != 1 || s.At != 9 {
		t.Errorf("valid sample rejected: %+v, %v", s, err)
	}
}

// TestSentinelErrors pins the errors.Is classification across packages.
func TestSentinelErrors(t *testing.T) {
	_, c := newCore(t)
	if err := c.QueryModel(1, nil, nil); !errors.Is(err, ErrNoModel) {
		t.Errorf("QueryModel = %v, want ErrNoModel", err)
	}
	if err := c.Activate(); !errors.Is(err, ErrNoStandby) {
		t.Errorf("Activate = %v, want ErrNoStandby", err)
	}
	if _, err := c.RegisterModel(nil); !errors.Is(err, ErrNilModule) {
		t.Errorf("RegisterModel(nil) = %v, want ErrNilModule", err)
	}
	if _, err := codegen.Generate(nil, "not an ident"); !errors.Is(err, codegen.ErrSnapshotBuild) {
		t.Errorf("Generate = %v, want ErrSnapshotBuild", err)
	}
	// A unit that does not parse (here: an activation the generator cannot
	// name) is the same class of failure, and keeps the parser's error list
	// as its cause.
	prog := quant.Quantize(nn.New([]int{2, 1}, []nn.Activation{nn.Activation(99)}, 1), quant.DefaultConfig())
	_, err := codegen.Build(prog, "broken")
	var list scanner.ErrorList
	if !errors.Is(err, codegen.ErrSnapshotBuild) || !errors.As(err, &list) {
		t.Errorf("Build = %v, want ErrSnapshotBuild wrapping a scanner.ErrorList", err)
	}
}
