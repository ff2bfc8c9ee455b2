package fleet

import (
	"testing"

	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
)

// fleetUser implements Freezer/Evaluator/Adapter around one shared network,
// with controllable stability and an optional record of every pooled batch.
type fleetUser struct {
	net       *nn.Network
	stability float64
	pools     [][]core.Sample
}

func (u *fleetUser) Freeze() *nn.Network          { return u.net }
func (u *fleetUser) Stability() float64           { return u.stability }
func (u *fleetUser) Infer(in []float64) []float64 { return u.net.Infer(in) }
func (u *fleetUser) Adapt(batch []core.Sample) {
	cp := make([]core.Sample, len(batch))
	copy(cp, batch)
	u.pools = append(u.pools, cp)
}

// fleetRig is a controller over n members, each with its own CPU, core, and
// channel, fed by a periodic per-member sample generator.
type fleetRig struct {
	eng   *netsim.Engine
	ctrl  *Controller
	user  *fleetUser
	cores []*core.Core
	chans []*netlink.Channel
}

// newFleetRig builds an n-member fleet. memberOptions(i) supplies per-member
// core/controller options (watchdog, faults); nil means none. ctrlOptions
// reach New.
func newFleetRig(t *testing.T, n int, cfg Config, memberOptions func(i int) (coreOpts, memberOpts []opt.Option), ctrlOptions ...opt.Option) *fleetRig {
	t.Helper()
	eng := netsim.NewEngine()
	ccfg := core.DefaultConfig()
	ccfg.FlowCacheTimeout = 0
	base := nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 11)
	user := &fleetUser{net: base, stability: 0.5}
	ctrl := New(eng, ccfg, user, user, user, cfg, ctrlOptions...)
	r := &fleetRig{eng: eng, ctrl: ctrl, user: user}
	for i := 0; i < n; i++ {
		var co, mo []opt.Option
		if memberOptions != nil {
			co, mo = memberOptions(i)
		}
		cpu := ksim.NewHostCPU(eng, 4)
		c := core.NewCore(eng, cpu, ksim.DefaultCosts(), ccfg, co...)
		ch := netlink.NewChannel(eng, cpu, ksim.DefaultCosts(), nil)
		if _, err := ctrl.AddMember(c, ch, mo...); err != nil {
			t.Fatal(err)
		}
		r.cores = append(r.cores, c)
		r.chans = append(r.chans, ch)
	}
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	return r
}

// feed pushes k samples into member i's channel, tagged with the member
// index in Aux so merge order is observable.
func (r *fleetRig) feed(i, k int) {
	for s := 0; s < k; s++ {
		r.chans[i].Push(core.EncodeSample(core.Sample{
			Input: []float64{0.1, 0.2, 0.3, 0.4},
			Aux:   []float64{float64(i)},
			At:    r.eng.Now(),
		}))
	}
}

// feedAll schedules a periodic feeder for every member until stop.
func (r *fleetRig) feedAll(every, stop netsim.Time) {
	var tick func()
	tick = func() {
		if r.eng.Now() >= stop {
			return
		}
		for i := range r.chans {
			r.feed(i, 4)
		}
		r.eng.After(every, tick)
	}
	r.eng.After(every, tick)
}

func TestFleetProvisionsAllMembers(t *testing.T) {
	r := newFleetRig(t, 4, Config{BatchInterval: 10 * netsim.Millisecond}, nil)
	defer r.ctrl.Stop()
	if got := r.ctrl.Epoch(); got != 1 {
		t.Fatalf("Epoch after Start = %d, want 1", got)
	}
	for i, c := range r.cores {
		if c.Active() == nil {
			t.Fatalf("member %d has no active snapshot after Start", i)
		}
	}
	if got := r.ctrl.StaleMembers(); got != 0 {
		t.Errorf("StaleMembers after provisioning = %d, want 0", got)
	}
}

// TestFanOutReachesEpochParity drives the full pipeline: pooled adaptation
// converges, the user model drifts past the necessity threshold, a new epoch
// is minted, and every member installs it.
func TestFanOutReachesEpochParity(t *testing.T) {
	r := newFleetRig(t, 4, Config{
		BatchInterval:       10 * netsim.Millisecond,
		AggregationInterval: 10 * netsim.Millisecond,
	}, nil)
	defer r.ctrl.Stop()
	r.feedAll(10*netsim.Millisecond, 300*netsim.Millisecond)
	// Drift the user model once the gate has had time to converge.
	r.eng.At(150*netsim.Millisecond, func() { r.user.net.Layers[1].B[0] += 0.5 })
	r.eng.RunUntil(400 * netsim.Millisecond)

	st := r.ctrl.Stats()
	if st.Epoch != 2 || st.VersionsBuilt != 1 {
		t.Fatalf("drift must mint exactly one new epoch: %+v", st)
	}
	if st.MemberInstalls != 4 {
		t.Errorf("MemberInstalls = %d, want 4", st.MemberInstalls)
	}
	if st.StaleMembers != 0 {
		t.Errorf("StaleMembers = %d, want 0 after fan-out", st.StaleMembers)
	}
	for i, e := range r.ctrl.MemberEpochs() {
		if e != 2 {
			t.Errorf("member %d epoch = %d, want 2", i, e)
		}
	}
	if st.Converged == 0 || st.FidelityChecks == 0 || st.SkippedByNecessity == 0 {
		t.Errorf("gates must run on the pooled stream: %+v", st)
	}
}

// TestDeterministicMergeOrder asserts DESIGN.md §4d for the fleet plane:
// pooled batches are merged in ascending member index order regardless of
// arrival interleaving, so the Adapter sees a deterministic stream.
func TestDeterministicMergeOrder(t *testing.T) {
	r := newFleetRig(t, 3, Config{
		BatchInterval:       10 * netsim.Millisecond,
		AggregationInterval: 30 * netsim.Millisecond,
	}, nil)
	defer r.ctrl.Stop()
	// Feed members in descending order; the pool must still come out 0,1,2.
	r.eng.After(netsim.Millisecond, func() {
		for i := len(r.chans) - 1; i >= 0; i-- {
			r.feed(i, 3)
		}
	})
	r.eng.RunUntil(100 * netsim.Millisecond)

	if len(r.user.pools) == 0 {
		t.Fatal("no pooled batch reached the adapter")
	}
	pool := r.user.pools[0]
	if len(pool) != 9 {
		t.Fatalf("pool size = %d, want 9", len(pool))
	}
	last := -1
	for _, sm := range pool {
		mi := int(sm.Aux[0])
		if mi < last {
			t.Fatalf("pool not in member-index order: member %d after %d", mi, last)
		}
		last = mi
	}
}

// TestBoundedInstallConcurrency fans an epoch out to 8 members with at most
// 2 installs in flight, and probes the in-flight count through the whole
// rollout window.
func TestBoundedInstallConcurrency(t *testing.T) {
	r := newFleetRig(t, 8, Config{
		BatchInterval:         10 * netsim.Millisecond,
		AggregationInterval:   10 * netsim.Millisecond,
		MaxConcurrentInstalls: 2,
	}, nil)
	defer r.ctrl.Stop()
	r.feedAll(10*netsim.Millisecond, 300*netsim.Millisecond)
	r.eng.At(100*netsim.Millisecond, func() { r.user.net.Layers[1].B[0] += 0.5 })

	maxInFlight := 0
	var probe func()
	probe = func() {
		if r.ctrl.inFlight > maxInFlight {
			maxInFlight = r.ctrl.inFlight
		}
		if r.eng.Now() < 300*netsim.Millisecond {
			r.eng.After(5*netsim.Microsecond, probe)
		}
	}
	r.eng.At(100*netsim.Millisecond, probe)
	r.eng.RunUntil(400 * netsim.Millisecond)

	st := r.ctrl.Stats()
	if st.MemberInstalls != 8 || st.StaleMembers != 0 {
		t.Fatalf("rollout must complete: %+v", st)
	}
	if maxInFlight != 2 {
		t.Errorf("peak in-flight installs = %d, want exactly the bound 2", maxInFlight)
	}
}

// TestStragglerParksAndCatchesUp is the acceptance path for straggler
// handling: a member that goes silent degrades via its watchdog, the fan-out
// install parks on its core, and the first post-recovery batch activates the
// parked standby, restoring epoch parity without a rebuild.
func TestStragglerParksAndCatchesUp(t *testing.T) {
	wd := opt.WithWatchdog(opt.Watchdog{Window: int64(50 * netsim.Millisecond)})
	r := newFleetRig(t, 3, Config{
		BatchInterval:       10 * netsim.Millisecond,
		AggregationInterval: 10 * netsim.Millisecond,
	}, func(i int) ([]opt.Option, []opt.Option) {
		return []opt.Option{wd}, nil
	})
	defer r.ctrl.Stop()

	// Members 0 and 1 feed throughout; member 2 goes dark during [40, 300]ms.
	var tick func()
	tick = func() {
		if r.eng.Now() >= 500*netsim.Millisecond {
			return
		}
		r.feed(0, 4)
		r.feed(1, 4)
		now := r.eng.Now()
		if now < 40*netsim.Millisecond || now > 300*netsim.Millisecond {
			r.feed(2, 4)
		}
		r.eng.After(10*netsim.Millisecond, tick)
	}
	r.eng.After(10*netsim.Millisecond, tick)

	// Drift while member 2 is degraded: the fan-out parks on it.
	r.eng.At(150*netsim.Millisecond, func() { r.user.net.Layers[1].B[0] += 0.5 })

	r.eng.RunUntil(200 * netsim.Millisecond)
	if !r.cores[2].Degraded() {
		t.Fatal("silent member must degrade")
	}
	st := r.ctrl.Stats()
	if st.Epoch != 2 {
		t.Fatalf("fleet epoch = %d, want 2 while straggler lags", st.Epoch)
	}
	if st.InstallsParked != 1 {
		t.Fatalf("install on a degraded member must park: %+v", st)
	}
	if st.StaleMembers != 1 {
		t.Fatalf("StaleMembers = %d, want 1 during the outage", st.StaleMembers)
	}
	if got := r.ctrl.Members()[2].Epoch(); got != 1 {
		t.Fatalf("straggler epoch = %d, want 1 while parked", got)
	}

	// Recovery: member 2's batches resume after 300ms. (Stop asserting
	// before the feeder's 500ms end — once every member goes silent, the
	// watchdogs legitimately degrade the whole fleet again.)
	r.eng.RunUntil(450 * netsim.Millisecond)
	st = r.ctrl.Stats()
	if r.cores[2].Degraded() {
		t.Fatal("member must recover once its batches resume")
	}
	if st.StaleMembers != 0 {
		t.Errorf("StaleMembers = %d, want 0 after recovery", st.StaleMembers)
	}
	for i, e := range r.ctrl.MemberEpochs() {
		if e != st.Epoch {
			t.Errorf("member %d epoch = %d, want fleet epoch %d", i, e, st.Epoch)
		}
	}
	if st.MemberInstalls != 3 {
		t.Errorf("MemberInstalls = %d, want 3 (2 direct + 1 parked activation)", st.MemberInstalls)
	}
}

// TestOutageDropsMemberBatches covers the injected-fault path: a member
// inside a fault.Injector outage window contributes nothing to the pool.
func TestOutageDropsMemberBatches(t *testing.T) {
	inj := fault.New(fault.Profile{
		OutagePeriod:   int64(2 * netsim.Millisecond),
		OutageDuration: int64(10 * netsim.Second),
	}, 1, obs.Scope{})
	r := newFleetRig(t, 2, Config{
		BatchInterval:       10 * netsim.Millisecond,
		AggregationInterval: 10 * netsim.Millisecond,
	}, func(i int) ([]opt.Option, []opt.Option) {
		if i == 1 {
			return nil, []opt.Option{opt.WithFaults(inj)}
		}
		return nil, nil
	})
	defer r.ctrl.Stop()
	r.eng.RunUntil(5 * netsim.Millisecond) // inside member 1's outage window
	r.feed(0, 4)
	r.feed(1, 4)
	r.eng.RunUntil(50 * netsim.Millisecond)

	st := r.ctrl.Stats()
	if st.OutageDrops != 1 {
		t.Fatalf("OutageDrops = %d, want 1", st.OutageDrops)
	}
	if st.Samples != 4 {
		t.Errorf("pool must contain only the healthy member's samples: %+v", st)
	}
}

// TestInjectorsOnSharedScopeCountTheirOwn: two members' injectors built on
// one scope (as the fleet rig builds its odd members') each count only their
// own faults — what they count on scopes of their own — while the series they
// share exports the sum.
func TestInjectorsOnSharedScopeCountTheirOwn(t *testing.T) {
	run := func(sc obs.Scope) [2]fault.Stats {
		injs := [2]*fault.Injector{
			fault.New(fault.Profile{OutagePeriod: int64(20 * netsim.Millisecond), OutageDuration: int64(5 * netsim.Millisecond)}, 3, sc),
			fault.New(fault.Profile{OutagePeriod: int64(60 * netsim.Millisecond), OutageDuration: int64(15 * netsim.Millisecond)}, 4, sc),
		}
		r := newFleetRig(t, 2, Config{
			BatchInterval:       5 * netsim.Millisecond,
			AggregationInterval: 5 * netsim.Millisecond,
		}, func(i int) ([]opt.Option, []opt.Option) {
			return nil, []opt.Option{opt.WithFaults(injs[i])}
		})
		defer r.ctrl.Stop()
		r.feedAll(5*netsim.Millisecond, 400*netsim.Millisecond)
		r.eng.RunUntil(400 * netsim.Millisecond)
		return [2]fault.Stats{injs[0].Stats(), injs[1].Stats()}
	}
	own := run(obs.Nop())
	if own[0].Outages == 0 || own[1].Outages == 0 || own[0].Outages == own[1].Outages {
		t.Fatalf("the two injectors need distinct, non-zero outage counts: %+v", own)
	}
	reg := obs.NewRegistry()
	shared := run(obs.New(reg, nil))
	if shared != own {
		t.Errorf("injectors on one scope count %+v, on their own %+v", shared, own)
	}
	if got, want := reg.Value("liteflow_fault_injected_total", obs.Label{Key: "kind", Value: "service_outage"}),
		float64(own[0].Outages+own[1].Outages); got != want {
		t.Errorf("shared series exports %g outages, want the sum %g", got, want)
	}
}

// TestClosedChannelAbandonsInstall: a member whose channel died mid-rollout
// cannot receive the version; the install counts as abandoned and the member
// stays visibly stale rather than silently "current".
func TestClosedChannelAbandonsInstall(t *testing.T) {
	r := newFleetRig(t, 3, Config{
		BatchInterval:       10 * netsim.Millisecond,
		AggregationInterval: 10 * netsim.Millisecond,
	}, nil)
	defer r.ctrl.Stop()
	r.feedAll(10*netsim.Millisecond, 300*netsim.Millisecond)
	r.eng.At(140*netsim.Millisecond, func() { r.chans[2].Close() })
	r.eng.At(150*netsim.Millisecond, func() { r.user.net.Layers[1].B[0] += 0.5 })
	r.eng.RunUntil(400 * netsim.Millisecond)

	st := r.ctrl.Stats()
	if st.Epoch != 2 {
		t.Fatalf("fleet epoch = %d, want 2", st.Epoch)
	}
	if st.InstallsAbandoned != 1 {
		t.Errorf("closed channel must abandon the install: %+v", st)
	}
	if st.StaleMembers != 1 {
		t.Errorf("StaleMembers = %d, want the dead member visible as stale", st.StaleMembers)
	}
	if got := r.ctrl.MemberEpochs()[2]; got != 1 {
		t.Errorf("dead member epoch = %d, want 1", got)
	}
}
