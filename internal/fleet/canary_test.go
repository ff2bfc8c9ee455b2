package fleet

import (
	"testing"

	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
)

// addLateMember enrolls one more member on an already-started rig, mirroring
// newFleetRig's member construction.
func (r *fleetRig) addLateMember(t *testing.T) *Member {
	t.Helper()
	ccfg := core.DefaultConfig()
	ccfg.FlowCacheTimeout = 0
	cpu := ksim.NewHostCPU(r.eng, 4)
	c := core.NewCore(r.eng, cpu, ksim.DefaultCosts(), ccfg)
	ch := netlink.NewChannel(r.eng, cpu, ksim.DefaultCosts(), nil)
	m, err := r.ctrl.AddMember(c, ch)
	if err != nil {
		t.Fatalf("AddMember after Start: %v", err)
	}
	r.cores = append(r.cores, c)
	r.chans = append(r.chans, ch)
	return m
}

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

// TestPinnedMemberSkipsFanOut: a pinned member holds its version through a
// fan-out (counted in the pinned gauge, excluded from staleness), and on
// unpin catches up through the ErrPastEvent late path — the wave's fan-out
// instant is long past, so the catch-up install joins the queue immediately
// and the late-catch-up counter ticks.
func TestPinnedMemberSkipsFanOut(t *testing.T) {
	r := newFleetRig(t, 3, Config{
		BatchInterval:       10 * netsim.Millisecond,
		AggregationInterval: 10 * netsim.Millisecond,
	}, nil)
	defer r.ctrl.Stop()
	pinned := r.ctrl.Members()[2]
	if err := pinned.Pin(7); err == nil {
		t.Fatal("Pin must reject an epoch the member does not have installed")
	}
	if err := pinned.Pin(1); err != nil {
		t.Fatalf("Pin(current epoch) failed: %v", err)
	}
	if !pinned.Pinned() {
		t.Fatal("member not pinned after Pin")
	}

	r.feedAll(10*netsim.Millisecond, 500*netsim.Millisecond)
	r.eng.At(150*netsim.Millisecond, func() { r.user.net.Layers[1].B[0] += 0.5 })
	r.eng.RunUntil(300 * netsim.Millisecond)

	st := r.ctrl.Stats()
	if st.Epoch != 2 {
		t.Fatalf("drift must mint epoch 2: %+v", st)
	}
	if got := r.ctrl.MemberEpochs(); got[0] != 2 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("pinned member must hold epoch 1: %v", got)
	}
	if st.PinnedMembers != 1 {
		t.Errorf("PinnedMembers = %d, want 1", st.PinnedMembers)
	}
	if st.StaleMembers != 0 {
		t.Errorf("pinned member counted stale: %+v", st)
	}

	pinned.Unpin()
	r.eng.RunUntil(500 * netsim.Millisecond)
	st = r.ctrl.Stats()
	if got := r.ctrl.MemberEpochs(); got[2] != 2 {
		t.Fatalf("unpinned member must catch up: %v", got)
	}
	if st.LateCatchUps < 1 {
		t.Errorf("catch-up after the wave drained must take the ErrPastEvent late path: %+v", st)
	}
	if st.PinnedMembers != 0 {
		t.Errorf("PinnedMembers = %d after Unpin, want 0", st.PinnedMembers)
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
// of the released version, through the late-catch-up path.
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
	late := r.ctrl.Stats().LateCatchUps

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

	if m.Epoch() != 3 {
		t.Fatalf("member must catch up to the released epoch 3, at %d", m.Epoch())
	}
	if m.parkedEpoch != 0 {
		t.Errorf("superseded parked epoch not discarded: %d", m.parkedEpoch)
	}
	if epochs[1] {
		t.Error("member regressed to epoch 1 during catch-up")
	}
	if got := r.ctrl.Stats().LateCatchUps; got <= late {
		t.Errorf("superseded catch-up must take the ErrPastEvent late path: %d -> %d", late, got)
	}
}

// TestAddMemberAfterStartJoinsLive: a member enrolled after Start must be
// provisioned with the released version and start batching immediately — not
// sit at epoch 0 inflating the staleness gauge (the old zombie-member bug).
func TestAddMemberAfterStartJoinsLive(t *testing.T) {
	r := newFleetRig(t, 2, Config{
		BatchInterval:       10 * netsim.Millisecond,
		AggregationInterval: 10 * netsim.Millisecond,
	}, nil)
	defer r.ctrl.Stop()

	m := r.addLateMember(t)
	if got := m.Epoch(); got != 1 {
		t.Fatalf("late joiner epoch = %d, want the released epoch 1", got)
	}
	if st := r.ctrl.Stats(); st.StaleMembers != 0 {
		t.Fatalf("late joiner counted stale: %+v", st)
	}

	// Its batches must flow (StartBatching was called for it) and it must
	// ride the next fan-out to parity like everyone else.
	r.feedAll(10*netsim.Millisecond, 400*netsim.Millisecond)
	r.eng.At(150*netsim.Millisecond, func() { r.user.net.Layers[1].B[0] += 0.5 })
	r.eng.RunUntil(500 * netsim.Millisecond)

	st := r.ctrl.Stats()
	if st.Epoch != 2 {
		t.Fatalf("drift must mint epoch 2: %+v", st)
	}
	for i, e := range r.ctrl.MemberEpochs() {
		if e != 2 {
			t.Errorf("member %d epoch = %d, want 2 (late joiner must ride fan-outs)", i, e)
		}
	}
}
