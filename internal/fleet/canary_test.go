package fleet

import (
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
)

// stagedRig is newFleetRig plus a canary-gated config: epoch mints install to
// the first CanaryCount members, observe for CanaryWindow, then release or
// roll back.
func stagedRig(t *testing.T, n, canaries int, fr *obs.FlightRecorder) *fleetRig {
	t.Helper()
	return newFleetRig(t, n, Config{
		BatchInterval:       10 * netsim.Millisecond,
		AggregationInterval: 10 * netsim.Millisecond,
		CanaryCount:         canaries,
		CanaryWindow:        40 * netsim.Millisecond,
		Flight:              fr,
	}, nil)
}

// TestCanaryStagedReleaseFailOpen: with no flight recorder the verdict has no
// evidence and passes fail-open — but the rollout must still be staged: the
// canary member activates the new epoch strictly before any non-canary
// member, and the release wave brings the rest to parity afterward.
func TestCanaryStagedReleaseFailOpen(t *testing.T) {
	r := stagedRig(t, 3, 1, nil)
	defer r.ctrl.Stop()
	r.feedAll(10*netsim.Millisecond, 400*netsim.Millisecond)
	r.eng.At(150*netsim.Millisecond, func() { r.user.net.Layers[1].B[0] += 0.5 })

	staged := false // observed: canary ahead of a non-canary mid-rollout
	var probe func()
	probe = func() {
		es := r.ctrl.MemberEpochs()
		if es[0] > es[1] && es[0] > es[2] {
			staged = true
		}
		if r.eng.Now() < 400*netsim.Millisecond {
			r.eng.After(netsim.Millisecond, probe)
		}
	}
	r.eng.At(150*netsim.Millisecond, probe)
	r.eng.RunUntil(500 * netsim.Millisecond)

	st := r.ctrl.Stats()
	if st.Epoch != 2 || st.ReleasedEpoch != 2 {
		t.Fatalf("drift must mint and release epoch 2: %+v", st)
	}
	if st.CanaryPasses != 1 || st.CanaryFails != 0 || st.Rollbacks != 0 {
		t.Fatalf("verdict must pass fail-open exactly once: %+v", st)
	}
	if !staged {
		t.Error("rollout was not staged: canary never led the non-canary members")
	}
	for i, e := range r.ctrl.MemberEpochs() {
		if e != 2 {
			t.Errorf("member %d epoch = %d, want 2 after release", i, e)
		}
	}
	if len(r.ctrl.Blacklisted()) != 0 {
		t.Errorf("nothing should be blacklisted: %v", r.ctrl.Blacklisted())
	}
}

// TestCanaryFailRollsBackAndBlacklists: a degradation signal rising through
// the observation window must fail the verdict — the canary rolls back to the
// released version, the epoch is blacklisted, and non-canary members never
// move off the released epoch.
func TestCanaryFailRollsBackAndBlacklists(t *testing.T) {
	reg := obs.NewRegistry()
	sc := obs.New(reg, nil)
	degraded := sc.Counter("liteflow_core_degraded_total", "synthetic degradation signal")
	fr := obs.NewFlightRecorder(0)

	r := stagedRig(t, 3, 1, fr)
	defer r.ctrl.Stop()

	// Accelerating degradations: the counter's rate grows linearly with
	// time, so whatever windows the verdict picks, after > before.
	n := int64(0)
	var degTick func()
	degTick = func() {
		n++
		degraded.Add(n)
		fr.Sample(reg, int64(r.eng.Now()))
		if r.eng.Now() < 500*netsim.Millisecond {
			r.eng.After(5*netsim.Millisecond, degTick)
		}
	}
	r.eng.After(5*netsim.Millisecond, degTick)

	r.feedAll(10*netsim.Millisecond, 400*netsim.Millisecond)
	r.eng.At(150*netsim.Millisecond, func() { r.user.net.Layers[1].B[0] += 0.5 })
	r.eng.RunUntil(500 * netsim.Millisecond)

	st := r.ctrl.Stats()
	if st.CanaryFails < 1 || st.Rollbacks < 1 {
		t.Fatalf("verdict must fail and roll the canary back: %+v", st)
	}
	if st.CanaryPasses != 0 {
		t.Errorf("no epoch should have passed under a rising degradation signal: %+v", st)
	}
	if st.ReleasedEpoch != 1 || r.ctrl.Released() != 1 {
		t.Errorf("released epoch moved despite failing verdicts: %+v", st)
	}
	bl := r.ctrl.Blacklisted()
	if len(bl) < 1 {
		t.Fatalf("failed epochs must be blacklisted: %+v", st)
	}
	for _, e := range bl {
		if e <= 1 {
			t.Errorf("blacklisted epoch %d was never a candidate", e)
		}
	}
	for i, e := range r.ctrl.MemberEpochs() {
		if e != 1 {
			t.Errorf("member %d epoch = %d, want 1 (canary rolled back, rest never staged)", i, e)
		}
	}
	// Epoch numbering stays monotonic: a blacklisted epoch number is burned,
	// never re-minted.
	seen := map[int64]bool{}
	for _, e := range bl {
		if seen[e] {
			t.Errorf("epoch %d blacklisted twice — number was reused", e)
		}
		seen[e] = true
	}
}

// TestLaggingMemberCatchesUp: a member behind the released epoch with no
// parked standby — it missed the wave — is brought to parity by its next
// batch, through one more install of the released version.
func TestLaggingMemberCatchesUp(t *testing.T) {
	r := newFleetRig(t, 3, Config{
		BatchInterval:       10 * netsim.Millisecond,
		AggregationInterval: 10 * netsim.Millisecond,
	}, nil)
	defer r.ctrl.Stop()
	r.feedAll(10*netsim.Millisecond, 500*netsim.Millisecond)
	r.eng.At(150*netsim.Millisecond, func() { r.user.net.Layers[1].B[0] += 0.5 })
	r.eng.RunUntil(300 * netsim.Millisecond)
	if got := r.ctrl.Released(); got != 2 {
		t.Fatalf("drift must release epoch 2, got %d (stats %+v)", got, r.ctrl.Stats())
	}

	// Rewind member 2 to before the epoch-2 wave.
	m := r.ctrl.members[2]
	m.epoch = 1
	st := r.ctrl.Stats()
	if st.StaleMembers != 1 {
		t.Fatalf("the lagging member must count stale: %+v", st)
	}
	r.eng.RunUntil(500 * netsim.Millisecond)
	if m.epoch != 2 {
		t.Fatalf("lagging member must catch up to the released epoch 2, at %d", m.epoch)
	}
	if got := r.ctrl.Stats(); got.MemberInstalls != st.MemberInstalls+1 || got.StaleMembers != 0 {
		t.Errorf("catch-up must take one install and leave nobody stale: installs %d -> %d, %+v",
			st.MemberInstalls, got.MemberInstalls, got)
	}
}

// TestStopAbandonsInstallMachinery: Stop mid-wave must abandon the queued
// tail, abort the in-flight transfer's callback, close the wave span, and
// freeze member epochs — nothing may register or activate after Stop.
func TestStopAbandonsInstallMachinery(t *testing.T) {
	r := newFleetRig(t, 6, Config{
		BatchInterval:         10 * netsim.Millisecond,
		AggregationInterval:   10 * netsim.Millisecond,
		MaxConcurrentInstalls: 1,
	}, nil)
	r.feedAll(10*netsim.Millisecond, 300*netsim.Millisecond)
	r.eng.At(100*netsim.Millisecond, func() { r.user.net.Layers[1].B[0] += 0.5 })

	var epochsAtStop []int64
	queuedAtStop, inFlightAtStop := 0, 0
	var probe func()
	probe = func() {
		if r.ctrl.inFlight > 0 && len(r.ctrl.queue) > 0 {
			queuedAtStop = len(r.ctrl.queue)
			inFlightAtStop = r.ctrl.inFlight
			epochsAtStop = r.ctrl.MemberEpochs()
			r.ctrl.Stop()
			return
		}
		if r.eng.Now() < 300*netsim.Millisecond {
			r.eng.After(50*netsim.Microsecond, probe)
		}
	}
	r.eng.At(100*netsim.Millisecond, probe)
	r.eng.RunUntil(400 * netsim.Millisecond)

	if epochsAtStop == nil {
		t.Fatal("never caught the controller mid-wave; test setup broken")
	}
	if got := r.ctrl.MemberEpochs(); !equalEpochs(got, epochsAtStop) {
		t.Errorf("member epochs moved after Stop: at stop %v, now %v", epochsAtStop, got)
	}
	st := r.ctrl.Stats()
	want := int64(queuedAtStop + inFlightAtStop)
	if st.InstallsAbandoned != want {
		t.Errorf("InstallsAbandoned = %d, want %d (%d queued + %d in flight at Stop)",
			st.InstallsAbandoned, want, queuedAtStop, inFlightAtStop)
	}
	if len(r.ctrl.queue) != 0 || r.ctrl.wave != nil || r.ctrl.phase != phaseIdle {
		t.Errorf("install machinery still live after Stop: queue=%d wave=%v phase=%d",
			len(r.ctrl.queue), r.ctrl.wave != nil, r.ctrl.phase)
	}
}

func equalEpochs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCatchUpSupersededParkedEpoch: a member that parked epoch N while the
// fleet went on to release N+1 must never activate the stale N — its first
// post-recovery batch discards the parked target and re-enqueues an install
// of the released version.
func TestCatchUpSupersededParkedEpoch(t *testing.T) {
	r := newFleetRig(t, 3, Config{
		BatchInterval:       10 * netsim.Millisecond,
		AggregationInterval: 10 * netsim.Millisecond,
	}, nil)
	defer r.ctrl.Stop()
	r.feedAll(10*netsim.Millisecond, 600*netsim.Millisecond)
	r.eng.At(150*netsim.Millisecond, func() { r.user.net.Layers[1].B[0] += 0.5 })
	r.eng.At(300*netsim.Millisecond, func() { r.user.net.Layers[1].B[0] -= 0.7 })
	r.eng.RunUntil(450 * netsim.Millisecond)
	if got := r.ctrl.Released(); got != 3 {
		t.Fatalf("two drifts must release epoch 3, got %d (stats %+v)", got, r.ctrl.Stats())
	}

	// Rewind member 2 into the straggler state: it parked epoch 2 on a
	// degraded core back then and missed the epoch-3 wave entirely.
	m := r.ctrl.members[2]
	m.epoch = 2
	m.parkedEpoch = 2
	installs := r.ctrl.Stats().MemberInstalls

	epochs := map[int64]bool{}
	var probe func()
	probe = func() {
		epochs[m.epoch] = true
		if r.eng.Now() < 600*netsim.Millisecond {
			r.eng.After(100*netsim.Microsecond, probe)
		}
	}
	probe()
	r.eng.RunUntil(600 * netsim.Millisecond)

	if m.epoch != 3 {
		t.Fatalf("member must catch up to the released epoch 3, at %d", m.epoch)
	}
	if m.parkedEpoch != 0 {
		t.Errorf("superseded parked epoch not discarded: %d", m.parkedEpoch)
	}
	if epochs[1] {
		t.Error("member regressed to epoch 1 during catch-up")
	}
	if got := r.ctrl.Stats().MemberInstalls; got != installs+1 {
		t.Errorf("superseded catch-up must take one install of the released version: %d -> %d", installs, got)
	}
}

// TestAddMemberAfterStartIsRefused: members join before Start. One offered
// afterwards is refused: it is not enrolled, its core gets no model, and its
// channel never batches.
func TestAddMemberAfterStartIsRefused(t *testing.T) {
	r := newFleetRig(t, 2, Config{
		BatchInterval:       10 * netsim.Millisecond,
		AggregationInterval: 10 * netsim.Millisecond,
	}, nil)
	defer r.ctrl.Stop()

	cpu := ksim.NewHostCPU(r.eng, 4)
	c := core.NewCore(r.eng, cpu, ksim.DefaultCosts(), core.DefaultConfig())
	ch := netlink.NewChannel(r.eng, cpu, ksim.DefaultCosts(), nil)
	if m, err := r.ctrl.AddMember(c, ch); err == nil || m != nil {
		t.Fatalf("AddMember after Start = (%v, %v), want an error", m, err)
	}
	if n := len(r.ctrl.Members()); n != 2 {
		t.Errorf("%d members enrolled, want the 2 from before Start", n)
	}
	if c.Active() != nil {
		t.Error("the refused member's core was given a model")
	}
	ch.Push(core.EncodeSample(core.Sample{Input: []float64{0.1, 0.2, 0.3, 0.4}, At: r.eng.Now()}))
	r.eng.RunUntil(100 * netsim.Millisecond)
	if st := ch.Stats(); st.Flushes != 0 {
		t.Errorf("the refused member's channel batched: %+v", st)
	}
	if st := r.ctrl.Stats(); st.Members != 2 || st.StaleMembers != 0 {
		t.Errorf("the refused member shows in the controller's stats: %+v", st)
	}
}

// memberHealthCase is one row of the memberHealth table tests: a canary's
// deltas and the verdict they should give for host 0.
type memberHealthCase struct {
	name   string
	deltas []obs.SeriesDelta
	want   string
}

const (
	qSeries   = "liteflow_core_queries_total"
	latSeries = "liteflow_query_ns"
	degSeries = "liteflow_core_degraded_total"
)

func rateDelta(name string, before, after float64) obs.SeriesDelta {
	return obs.SeriesDelta{Name: name, Cumulative: true, Before: before, After: after}
}

func levelDelta(name string, before, after float64) obs.SeriesDelta {
	return obs.SeriesDelta{Name: name, Before: before, After: after}
}

func checkMemberHealth(t *testing.T, cases []memberHealthCase) {
	t.Helper()
	host0 := func(name string) bool { return strings.Contains(name, `host="0"`) }
	for _, tc := range cases {
		if got := memberHealth(tc.deltas, host0); got != tc.want {
			t.Errorf("%s: memberHealth = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestMemberHealthSumAndMean: each criterion sums the canary's own series, so
// a fall in one query counter that another makes up for passes; latency
// compares the mean p99 estimate.
func TestMemberHealthSumAndMean(t *testing.T) {
	q, lat := qSeries, latSeries
	checkMemberHealth(t, []memberHealthCase{
		{"query rates summed", []obs.SeriesDelta{
			rateDelta(q+`{host="0",role="a"}`, 10, 2), rateDelta(q+`{host="0",role="b"}`, 20, 27)}, "ok"},
		{"query rate sum falls", []obs.SeriesDelta{
			rateDelta(q+`{host="0",role="a"}`, 10, 5), rateDelta(q+`{host="0",role="b"}`, 20, 10)}, "goodput"},
		{"another member's fall", []obs.SeriesDelta{
			rateDelta(q+`{host="0"}`, 10, 10), rateDelta(q+`{host="1"}`, 10, 0)}, "ok"},
		{"mean p99 grows", []obs.SeriesDelta{
			levelDelta(lat+`{host="0",role="a"}_p99`, 5, 9), levelDelta(lat+`{host="0",role="b"}_p99`, 5, 9)}, "latency"},
		{"mean p99 holds", []obs.SeriesDelta{
			levelDelta(lat+`{host="0",role="a"}_p99`, 5, 4), levelDelta(lat+`{host="0",role="b"}_p99`, 5, 10)}, "ok"},
		{"a cumulative p99 is not a level", []obs.SeriesDelta{rateDelta(lat+`{host="0"}_p99`, 5, 50)}, "ok"},
		{"degraded", []obs.SeriesDelta{rateDelta(degSeries+`{host="0"}`, 0, 1)}, "degraded"},
	})
}

// TestMemberHealthNilRecorder: a criterion no series feeds (N = 0, as from a
// nil recorder, whose Delta is nil) is inconclusive and passes.
func TestMemberHealthNilRecorder(t *testing.T) {
	var nilRec *obs.FlightRecorder
	checkMemberHealth(t, []memberHealthCase{
		{"nil recorder", nilRec.Delta(obs.TimeWindow{}, obs.TimeWindow{From: 0, To: 1}), "ok"},
		{"no series", []obs.SeriesDelta{}, "ok"},
		{"another member's series only", []obs.SeriesDelta{
			rateDelta(qSeries+`{host="1"}`, 10, 0), levelDelta(latSeries+`{host="1"}_p99`, 5, 50)}, "ok"},
		{"no baseline rate", []obs.SeriesDelta{rateDelta(qSeries+`{host="0"}`, 0, 0)}, "ok"},
	})
}
