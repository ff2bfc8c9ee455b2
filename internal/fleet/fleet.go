// Package fleet is the snapshot distribution plane: one userspace slow path
// serving many kernel datapaths. The paper's service (§4.1) adapts a model
// for exactly one core; the ROADMAP's production target — millions of users —
// needs one Controller that owns the Freezer/Evaluator/Adapter, aggregates
// sample batches across N per-host (Core, netlink.Channel) members, runs the
// correctness and necessity gates once on the pooled stream, and fans
// versioned snapshot installs back out.
//
// Versioning and staleness: every fan-out bumps a fleet-wide epoch; each
// member records the epoch it last activated (liteflow_fleet_member_epoch)
// and the controller gauges how many members lag the released epoch
// (liteflow_fleet_stale_members). Install concurrency is bounded
// (Config.MaxConcurrentInstalls), so a large fleet rolls out in waves rather
// than bursting the control plane. A member inside an outage or degraded
// window parks the install — the module stays registered as that member's
// standby (core.ErrDegraded semantics) — and catches up on its first
// post-recovery batch, either activating the parked standby (still the
// released version) or re-enqueueing an install of the released version
// (superseded meanwhile).
//
// Staged rollouts (DESIGN.md §4i): with canary gating enabled, a minted
// epoch first installs only to a deterministic cohort (the lowest non-pinned
// member indices), the controller observes per-member flight-recorder deltas
// over Config.CanaryWindow against the pre-install window, and only a
// passing verdict releases the remaining members. A failing verdict rolls
// the canaries back to the retained previous version, blacklists the epoch,
// and the next aggregation rounds mint a fresh candidate. Members may also be
// pinned (Member.Pin) to opt out of fan-outs entirely.
//
// Determinism (DESIGN.md §4d): member batches are pooled in ascending member
// index order on every aggregation tick, the fan-out queue and the canary
// cohort are filled in the same order, verdicts fire on the single-goroutine
// engine clock, and the flight-recorder reduction iterates series in sorted
// name order, so a fleet run is byte-identical across repetitions and
// serial-vs-parallel harnesses.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// Config tunes the distribution plane.
type Config struct {
	// BatchInterval is each member channel's kernel→controller delivery
	// period (the paper's T). Zero means 100 ms.
	BatchInterval netsim.Time
	// AggregationInterval is the pooled adapt/gate cadence. Zero means
	// BatchInterval.
	AggregationInterval netsim.Time
	// MaxConcurrentInstalls bounds how many member installs may be in
	// flight simultaneously during a fan-out wave. Zero means 4.
	MaxConcurrentInstalls int

	// CanaryCount stages each minted epoch to the first CanaryCount
	// non-pinned members (lowest indices — deterministic per §4d) before
	// releasing the rest. If it is zero, or the cohort would cover the whole
	// fleet, epochs fan out unstaged.
	CanaryCount int
	// CanaryWindow is how long the controller observes the canary cohort
	// before the verdict, and how far back the pre-install baseline window
	// reaches. Zero disables staging entirely.
	CanaryWindow netsim.Time
	// Flight is the recorder the verdict reads member health from. A nil
	// recorder (or one with no matching series) makes verdicts pass
	// fail-open — the gate cannot see, so it does not block.
	Flight *obs.FlightRecorder
}

const (
	// namePrefix names generated snapshot modules (suffix is the epoch).
	namePrefix = "fleet"
	// canaryMinGoodputRatio fails the verdict when a canary's query rate
	// over the observation window drops below this fraction of its
	// pre-install rate.
	canaryMinGoodputRatio = 0.9
	// canaryMaxLatencyRatio fails the verdict when a canary's query-latency
	// p99 estimate grows beyond this multiple of its pre-install value.
	canaryMaxLatencyRatio = 1.5
)

func (c Config) withDefaults() Config {
	if c.BatchInterval <= 0 {
		c.BatchInterval = 100 * netsim.Millisecond
	}
	if c.AggregationInterval <= 0 {
		c.AggregationInterval = c.BatchInterval
	}
	if c.MaxConcurrentInstalls <= 0 {
		c.MaxConcurrentInstalls = 4
	}
	return c
}

// staged reports whether canary gating is configured at all (the per-wave
// cohort can still degenerate to unstaged when it would cover the fleet).
func (c Config) staged() bool {
	return c.CanaryWindow > 0 && c.CanaryCount > 0
}

// Stats counts controller activity. The controller counts into its own Stats,
// and its scope exports the fields as counter and gauge views; Stats() fills
// in the computed fields (Members, Epoch, ReleasedEpoch, StaleMembers,
// PinnedMembers) on the copy it returns.
type Stats struct {
	Members            int
	Epoch              int64 // latest minted epoch (may still be in canary)
	ReleasedEpoch      int64 // latest epoch released to the whole fleet
	StaleMembers       int
	PinnedMembers      int
	Aggregations       int64 // pooled adapt rounds with at least one sample
	Batches            int64 // member batches accepted
	Samples            int64 // samples pooled across all members
	Converged          int64 // aggregation rounds that passed the correctness gate
	FidelityChecks     int64 // necessity evaluations on the pooled stream
	SkippedByNecessity int64
	VersionsBuilt      int64 // fleet epochs minted (one module each)
	BuildFailures      int64
	MemberInstalls     int64 // per-member installs activated
	InstallsParked     int64 // member installs parked on a degraded core
	InstallsAbandoned  int64 // member installs dropped (rejection, closed channel, Stop)
	InstallsDeferred   int64 // build rounds deferred because a fan-out was in flight
	CanaryPasses       int64 // staged epochs released after a healthy observation window
	CanaryFails        int64 // staged epochs blacklisted by the verdict
	Rollbacks          int64 // canary members rolled back to the prior version
	OutageDrops        int64 // member batches dropped inside injected outages
	LateCatchUps       int64 // catch-up installs enqueued after the wave fan-out time passed
	Malformed          int64
	FidelityMismatches int64
	LastStability      float64
	LastFidelity       float64
}

// register exports the controller's counts on sc. The stale and pinned
// gauges read the Stats fields updateStale refreshes; the released-epoch gauge
// reads the released version itself.
func (c *Controller) register(sc obs.Scope) {
	st := &c.st
	sc.CounterOf("liteflow_fleet_aggregations_total", "pooled adapt rounds with at least one sample", &st.Aggregations)
	sc.CounterOf("liteflow_fleet_batches_total", "member sample batches accepted by the controller", &st.Batches)
	sc.CounterOf("liteflow_fleet_samples_total", "samples pooled across all members", &st.Samples)
	sc.CounterOf("liteflow_fleet_converged_total", "aggregation rounds that passed the correctness gate", &st.Converged)
	sc.CounterOf("liteflow_fleet_fidelity_checks_total", "necessity evaluations on the pooled stream", &st.FidelityChecks)
	sc.CounterOf("liteflow_fleet_skipped_by_necessity_total", "builds skipped because pooled fidelity loss was below threshold", &st.SkippedByNecessity)
	sc.CounterOf("liteflow_fleet_versions_total", "fleet snapshot epochs minted", &st.VersionsBuilt)
	sc.CounterOf("liteflow_fleet_build_failures_total", "snapshot build failures (the next aggregation round retries)", &st.BuildFailures)
	sc.CounterOf("liteflow_fleet_member_installs_total", "per-member snapshot installs activated", &st.MemberInstalls)
	sc.CounterOf("liteflow_fleet_installs_parked_total", "member installs parked on a degraded core until recovery", &st.InstallsParked)
	sc.CounterOf("liteflow_fleet_installs_abandoned_total", "member installs dropped: module rejected, channel closed, or controller stopped", &st.InstallsAbandoned)
	sc.CounterOf("liteflow_fleet_installs_deferred_total", "build rounds deferred because a fan-out was still in flight", &st.InstallsDeferred)
	sc.CounterOf("liteflow_fleet_canary_pass_total", "staged epochs released after a healthy canary observation window", &st.CanaryPasses)
	sc.CounterOf("liteflow_fleet_canary_fail_total", "staged epochs blacklisted by a failing canary verdict", &st.CanaryFails)
	sc.CounterOf("liteflow_fleet_rollbacks_total", "canary members rolled back to the prior released version", &st.Rollbacks)
	sc.CounterOf("liteflow_fleet_outage_drops_total", "member batches dropped inside injected outages", &st.OutageDrops)
	sc.CounterOf("liteflow_fleet_late_catchups_total", "catch-up installs enqueued immediately because the wave fan-out time had passed", &st.LateCatchUps)
	sc.CounterOf("liteflow_fleet_malformed_total", "member messages rejected by sample validation", &st.Malformed)
	sc.CounterOf("liteflow_fleet_fidelity_size_mismatch_total", "pooled fidelity samples skipped for output-size mismatch", &st.FidelityMismatches)
	obs.GaugeOf(sc, "liteflow_fleet_stale_members", "members whose installed epoch lags the released epoch", &st.StaleMembers)
	obs.GaugeOf(sc, "liteflow_fleet_pinned_members", "members pinned to a version and excluded from fan-outs", &st.PinnedMembers)
	obs.GaugeOf(sc, "liteflow_fleet_released_epoch", "latest epoch released to the whole fleet", &c.rel.epoch)
	obs.GaugeOf(sc, "liteflow_fleet_last_stability", "stability metric from the latest pooled round", &st.LastStability)
	obs.GaugeOf(sc, "liteflow_fleet_last_fidelity", "minimal pooled fidelity loss from the latest necessity check", &st.LastFidelity)
}

// Member is one kernel datapath served by the controller.
type Member struct {
	Index int
	Core  *core.Core
	Chan  *netlink.Channel

	epoch       int64 // last activated fleet epoch
	parkedEpoch int64 // epoch of a standby parked by degradation (0 = none)
	installing  bool  // an install is queued or in flight
	pinned      bool
	pending     []core.Sample

	ctrl *Controller
	inj  *fault.Injector
}

// Epoch returns the fleet epoch this member last activated.
func (m *Member) Epoch() int64 { return m.epoch }

// Pinned reports whether the member is pinned to its installed version.
func (m *Member) Pinned() bool { return m.pinned }

// Pin freezes the member at epoch, which must be the version it currently
// has installed — pinning is "hold what you have", not a request to install
// something else. Pinned members are skipped by fan-outs, canary cohorts,
// releases, and catch-up, and are not counted stale; they keep sampling (their
// traffic still informs adaptation). Returns an error if epoch is not the
// member's installed epoch.
func (m *Member) Pin(epoch int64) error {
	if epoch != m.epoch {
		return fmt.Errorf("fleet: member %d is at epoch %d, cannot pin epoch %d", m.Index, m.epoch, epoch)
	}
	if !m.pinned {
		m.pinned = true
		m.ctrl.sc.Event2("fleet", "pin", m.ctrl.eng.Now(), "member", int64(m.Index), "epoch", epoch)
		m.ctrl.updateStale()
	}
	return nil
}

// Unpin re-enrolls the member in fan-outs. It rejoins at its next catch-up
// (or the next minted wave) rather than being installed synchronously.
func (m *Member) Unpin() {
	if !m.pinned {
		return
	}
	m.pinned = false
	m.ctrl.sc.Event2("fleet", "unpin", m.ctrl.eng.Now(), "member", int64(m.Index), "epoch", m.epoch)
	m.ctrl.updateStale()
}

// version ties an epoch to its built module, whose Program is also the
// userspace reference the necessity gate compares against. The controller
// retains the released version (rel) alongside the latest minted one (cur) so
// a failed canary has something to roll back to.
type version struct {
	epoch int64
	mod   *codegen.Module
}

// installJob is one queued install of a version on a member. rollback jobs
// re-install the retained previous version after a failed canary.
type installJob struct {
	m *Member
	version
	rollback bool
}

// wavePhase is the rollout state machine (DESIGN.md §4i). enter is its one
// transition function: buildAndFanOut and the canary verdict enter the four
// install-burst phases, and a burst that drains enters the phase the rollout
// table names.
type wavePhase int

const (
	phaseIdle     wavePhase = iota // no wave in flight; builds may mint
	phaseFanOut                    // unstaged wave installing to all members
	phaseCanary                    // staged wave installing to the cohort
	phaseObserve                   // cohort live; watching flight deltas
	phaseRelease                   // verdict passed; installing the rest
	phaseRollback                  // verdict failed; restoring the cohort
)

// rollout says what a drained install burst does, by the phase that ran it:
// the span child that records the burst, the phase that follows, and whether
// the rollout span then ends — failed with a reason, or successfully. Idle and
// observe run no burst; observe is left by the verdict timer.
var rollout = [...]struct {
	child  string
	next   wavePhase
	ends   bool
	failed string
}{
	phaseFanOut:   {child: "install_wave", next: phaseIdle, ends: true},
	phaseCanary:   {child: "canary_install_wave", next: phaseObserve},
	phaseRelease:  {child: "release_wave", next: phaseIdle, ends: true},
	phaseRollback: {child: "rollback_wave", next: phaseIdle, ends: true, failed: "canary_failed"},
}

// Controller is the fleet's single slow path.
type Controller struct {
	eng     *netsim.Engine
	cfg     Config
	coreCfg core.Config // gate parameters + quantization config

	freezer   core.Freezer
	evaluator core.Evaluator
	adapter   core.Adapter

	members    []*Member
	cur        version // latest minted version (may still be in canary)
	rel        version // latest version released to the whole fleet
	lastMinted int64   // monotonic epoch allocator (blacklisted epochs not reused)
	blacklist  []int64 // epochs rejected by canary verdicts, in mint order

	gate     core.StabilityGate
	queue    []installJob
	inFlight int
	running  bool

	phase    wavePhase
	canaries []*Member   // cohort of the staged wave in flight
	obsStart netsim.Time // when the canary observation window opened

	// wave is the open rollout span: rooted at the first pooled aggregation
	// after the previous wave drained, versioned when buildAndFanOut mints
	// the epoch, ended when the rollout resolves (released or rolled back).
	// Member installs emit as standalone spans keyed by the same epoch pid,
	// so the whole rollout renders as one tree across all member tracks.
	spans    *obs.SpanTracer
	wave     *obs.Span
	fanStart netsim.Time // fan-out instant of the released version (catch-up replay anchor)
	segStart netsim.Time // start of the current enqueue burst (span children)

	sc obs.Scope
	st Stats
}

// New returns a controller. coreCfg supplies the gate parameters
// (OutMin/OutMax, StabilityWindow/Tolerance; the threshold's scale is
// core.Alpha) and the quantization config used for snapshot generation;
// members keep their own core.Config for datapath concerns. opt.WithScope
// attaches telemetry.
func New(eng *netsim.Engine, coreCfg core.Config, f core.Freezer, e core.Evaluator, a core.Adapter, cfg Config, options ...opt.Option) *Controller {
	o := opt.Resolve(options)
	c := &Controller{
		eng: eng, cfg: cfg.withDefaults(), coreCfg: coreCfg,
		freezer: f, evaluator: e, adapter: a, sc: o.Scope,
	}
	c.register(c.sc)
	c.spans = obs.NewSpanTracer(c.sc)
	return c
}

// AddMember enrolls one (core, channel) pair. The channel's delivery
// callback is replaced with the controller's aggregator, and the member
// core's watchdog (when configured) is armed — the controller is its slow
// path now. opt.WithFaults subjects this member's batch stream to injected
// outages (the controller drops its batches inside outage windows, which is
// the silence the member's watchdog detects).
//
// Members added after Start are provisioned as late joiners: the released
// version is registered and activated directly and batching begins
// immediately, so the member enters at epoch parity instead of sitting at
// epoch 0 inflating the staleness gauge. A late joiner whose core rejects the
// released module returns an error and is not enrolled.
func (c *Controller) AddMember(co *core.Core, ch *netlink.Channel, options ...opt.Option) (*Member, error) {
	o := opt.Resolve(options)
	m := &Member{Index: len(c.members), Core: co, Chan: ch, ctrl: c, inj: o.Faults}
	msc := c.sc.With(obs.Label{Key: "member", Value: strconv.Itoa(m.Index)}).WithTid(int64(m.Index) + 1)
	obs.GaugeOf(msc, "liteflow_fleet_member_epoch", "fleet epoch this member last activated", &m.epoch)
	ch.SetDeliver(func(batch []netlink.Message) { c.handleMemberBatch(m, batch) })
	co.AttachSlowPath()
	if c.running {
		if _, err := co.RegisterModel(c.rel.mod); err != nil {
			return nil, fmt.Errorf("fleet: provision late member %d: %w", m.Index, err)
		}
		m.epoch = c.rel.epoch
		c.members = append(c.members, m)
		ch.StartBatching(c.cfg.BatchInterval)
		c.updateStale()
		c.sc.Event2("fleet", "late_join", c.eng.Now(), "member", int64(m.Index), "epoch", m.epoch)
		return m, nil
	}
	c.members = append(c.members, m)
	return m, nil
}

// Members returns the enrolled members in index order.
func (c *Controller) Members() []*Member { return c.members }

// Epoch returns the latest minted fleet epoch. During a staged rollout this
// runs ahead of Released; a failed canary reverts it to the released epoch.
func (c *Controller) Epoch() int64 { return c.cur.epoch }

// Released returns the latest epoch released to the whole fleet.
func (c *Controller) Released() int64 { return c.rel.epoch }

// Blacklisted returns the epochs rejected by canary verdicts, in mint order.
func (c *Controller) Blacklisted() []int64 { return append([]int64(nil), c.blacklist...) }

// StaleMembers returns how many members lag the released epoch. Canaries
// running ahead of the release and pinned members are not stale.
func (c *Controller) StaleMembers() int {
	stale := 0
	for _, m := range c.members {
		if m.epoch < c.rel.epoch && !m.pinned {
			stale++
		}
	}
	return stale
}

// MemberEpochs returns every member's installed epoch in index order.
func (c *Controller) MemberEpochs() []int64 {
	es := make([]int64, len(c.members))
	for i, m := range c.members {
		es[i] = m.epoch
	}
	return es
}

// Start provisions every member with the initial model (epoch 1, installed
// directly — provisioning predates the datapath, so there is no netlink
// transfer to model), then begins per-member batching and the aggregation
// tick chain. It returns an error if the initial snapshot cannot be built.
func (c *Controller) Start() error {
	if c.running {
		return nil
	}
	if len(c.members) == 0 {
		return fmt.Errorf("fleet: no members enrolled")
	}
	mod, err := codegen.Build(quant.Quantize(c.freezer.Freeze(), c.coreCfg.Quant), namePrefix+"_1")
	if err != nil {
		return fmt.Errorf("fleet: initial snapshot: %w", err)
	}
	c.lastMinted = 1
	c.cur = version{epoch: 1, mod: mod}
	c.rel = c.cur
	for _, m := range c.members {
		if _, err := m.Core.RegisterModel(mod); err != nil {
			return fmt.Errorf("fleet: provision member %d: %w", m.Index, err)
		}
		m.epoch = 1
	}
	c.st.StaleMembers = 0
	c.running = true
	for _, m := range c.members {
		m.Chan.StartBatching(c.cfg.BatchInterval)
	}
	c.scheduleAggregation()
	return nil
}

// Stop halts the aggregation chain and member batching, and tears down the
// install machinery: the queued tail of any in-flight wave is abandoned
// (counted in installs_abandoned) and the open wave span is closed — without
// this, in-flight SendToKernel callbacks would keep registering and
// activating models on a controller the caller believes is dead.
func (c *Controller) Stop() {
	if !c.running {
		return
	}
	c.running = false
	if n := len(c.queue); n > 0 {
		c.st.InstallsAbandoned += int64(n)
		c.sc.Event1("fleet", "stop_abandons_queue", c.eng.Now(), "jobs", int64(n))
		for _, j := range c.queue {
			j.m.installing = false
		}
		c.queue = nil
	}
	c.closeWave(c.eng.Now(), "stopped")
	c.enter(phaseIdle, c.eng.Now(), nil)
	for _, m := range c.members {
		m.Chan.StopBatching()
		m.Core.StopWatchdog()
	}
}

// Stats returns a copy of the controller's counters, its computed fields
// filled in.
func (c *Controller) Stats() Stats {
	st := c.st
	st.Members, st.Epoch, st.ReleasedEpoch = len(c.members), c.cur.epoch, c.rel.epoch
	st.StaleMembers, st.PinnedMembers = c.StaleMembers(), c.pinnedMembers()
	return st
}

// handleMemberBatch buffers one member's delivered batch for the next
// aggregation tick. A batch arriving inside that member's injected outage is
// dropped wholesale — exactly the silence its watchdog detects — so the
// member degrades, parks any install, and catches up here on recovery. A
// batch delivered after Stop (already in flight when the controller went
// down) is ignored.
func (c *Controller) handleMemberBatch(m *Member, batch []netlink.Message) {
	if !c.running {
		return
	}
	now := c.eng.Now()
	if m.inj.ServiceDown(int64(now)) {
		c.st.OutageDrops++
		c.sc.Event2("fleet", "outage_drop", now, "member", int64(m.Index), "msgs", int64(len(batch)))
		return
	}
	m.Core.NoteSlowPathAlive()
	c.catchUp(m)
	var malformed int
	m.pending, malformed = core.ParseBatch(m.pending, batch)
	c.st.Malformed += int64(malformed)
	c.st.Batches++
}

// catchUp brings a just-proven-alive member back to parity with the released
// epoch. A standby parked at the released epoch activates in place; a parked
// or missed epoch that was superseded (or blacklisted — a failed verdict
// reverts to the released version, so a blacklisted epoch is never the
// released one) re-enqueues an install of the released version. Pinned members
// hold their version.
func (c *Controller) catchUp(m *Member) {
	if m.pinned {
		return
	}
	if m.parkedEpoch != 0 {
		target := m.parkedEpoch
		m.parkedEpoch = 0
		if target == c.rel.epoch && !m.Core.Degraded() {
			if err := m.Core.Activate(); err == nil {
				m.epoch = target
				c.st.MemberInstalls++
				c.sc.Event2("fleet", "parked_activate", c.eng.Now(), "member", int64(m.Index), "epoch", target)
				c.spans.Lone("snapshot", "parked_activate", target, int64(m.Index), c.eng.Now(), 0)
				c.updateStale()
				return
			}
		}
		// Superseded, or activation still refused: fall through and
		// re-enqueue the released version below.
	}
	if m.epoch < c.rel.epoch && !m.installing {
		job := installJob{m: m, version: c.rel}
		// Replay the missed wave: ideally the member's install would slot in
		// at the epoch's original fan-out instant, but a catching-up member
		// is by definition past it. TryAt reports the stale clock as a typed
		// ErrPastEvent (instead of the engine's scheduling panic), and the
		// install falls back to joining the queue immediately.
		if err := c.eng.TryAt(c.fanStart, func() { c.enqueue(job) }); err != nil {
			c.st.LateCatchUps++
			c.enqueue(job)
		}
	}
}

func (c *Controller) scheduleAggregation() {
	c.eng.After(c.cfg.AggregationInterval, func() {
		if !c.running {
			return
		}
		c.aggregate()
		c.scheduleAggregation()
	})
}

// aggregate is one slow-path round over the pooled stream: merge member
// buffers in index order, adapt once, run the correctness and necessity
// gates once, and on necessity mint a new epoch and fan it out.
func (c *Controller) aggregate() {
	var pool []core.Sample
	for _, m := range c.members { // ascending index: deterministic merge
		pool = append(pool, m.pending...)
		m.pending = m.pending[:0]
	}
	if len(pool) == 0 {
		return
	}
	c.st.Aggregations++
	c.st.Samples += int64(len(pool))
	if c.wave == nil {
		c.wave = c.spans.Root("snapshot", "fleet_rollout", c.eng.Now())
	}

	c.adapter.Adapt(pool)
	c.st.LastStability = c.evaluator.Stability()

	// The correctness gate on the pooled stability metric — identical policy
	// to the single-core service (paper §3.2), run once for the whole fleet.
	if !c.gate.Converged(c.st.LastStability, c.coreCfg) {
		return
	}
	c.st.Converged++
	c.evaluateNecessity(pool)
}

// evaluateNecessity computes the minimal fidelity loss of the pooled batch
// against the controller's own reference copy of the latest minted snapshot
// program. Unlike the single-core service — which round-trips inputs to the
// kernel — the fleet controller evaluates in userspace: shipping N members'
// worth of queries down and back would multiply cross-space cost by the
// fleet size for an answer the reference program gives bit-identically.
func (c *Controller) evaluateNecessity(pool []core.Sample) {
	if c.cur.mod == nil {
		return
	}
	c.st.FidelityChecks++
	minLoss, mismatched := core.MinFidelityLoss(c.cur.mod.Program, c.evaluator, pool, nil)
	c.st.FidelityMismatches += int64(mismatched)
	if math.IsInf(minLoss, 1) {
		return
	}
	c.st.LastFidelity = minLoss
	threshold := core.Alpha * (c.coreCfg.OutMax - c.coreCfg.OutMin)
	if minLoss <= threshold {
		c.st.SkippedByNecessity++
		return
	}
	c.buildAndFanOut()
}

// buildAndFanOut mints the next epoch — one freeze, one quantization, one
// codegen — and starts its rollout. With canary gating configured the new
// version installs only to the cohort and the wave enters the observation
// phase when those installs drain; otherwise it enqueues an install for every
// non-pinned member in index order. A wave still in flight (any non-idle
// phase) defers the build: overlapping waves would ship distinct versions to
// different members and break epoch monotonicity.
func (c *Controller) buildAndFanOut() {
	now := c.eng.Now()
	if c.phase != phaseIdle || c.inFlight > 0 || len(c.queue) > 0 {
		c.st.InstallsDeferred++
		c.wave.Mark("install_deferred", now, "queued", int64(len(c.queue)))
		return
	}
	next := c.lastMinted + 1
	name := namePrefix + "_" + strconv.FormatInt(next, 10)
	mod, err := codegen.Build(quant.Quantize(c.freezer.Freeze(), c.coreCfg.Quant), name)
	if err != nil {
		// The next converged round retries with a fresh freeze.
		c.st.BuildFailures++
		c.sc.EventStr("fleet", "build_failure", now, "model", name)
		c.wave.Mark("build_failure", now, "epoch", next)
		return
	}
	// Re-seed the correctness gate: the window that justified this mint is
	// spent. Without this a single stable stretch could re-pass instantly on
	// the next round and mint back-to-back epochs off stale history.
	c.gate.Reset()
	c.lastMinted = next
	c.cur = version{epoch: next, mod: mod}
	c.st.VersionsBuilt++
	c.sc.Event2("fleet", "version", now, "epoch", next, "members", int64(len(c.members)))
	// The epoch exists now: stage the rollout's controller-side children.
	// Pooling covers root-open to this build; the gates and build are
	// synchronous in virtual time, so they render as instants.
	c.wave.SetVersion(next)
	c.wave.Child("pool", c.wave.Start(), now-c.wave.Start())
	c.wave.Child("correctness_gate", now, 0)
	c.wave.Child("necessity_gate", now, 0)
	c.wave.Child("quantize", now, 0)
	c.wave.Child("build", now, 0)
	phase, targets := phaseFanOut, c.members
	if cohort := c.canaryCohort(); len(cohort) > 0 {
		phase, targets = phaseCanary, cohort
		c.canaries = cohort
		c.sc.Event2("fleet", "canary_stage", now, "epoch", next, "canaries", int64(len(cohort)))
		c.wave.Mark("canary_stage", now, "canaries", int64(len(cohort)))
	} else {
		c.release(now)
	}
	jobs := make([]installJob, 0, len(targets))
	for _, m := range targets {
		if !m.pinned {
			jobs = append(jobs, installJob{m: m, version: c.cur})
		}
	}
	c.enter(phase, now, jobs)
}

// release makes the latest minted version the released one, as of now.
func (c *Controller) release(now netsim.Time) {
	c.rel = c.cur
	c.fanStart = now
}

// enter is the rollout's one transition: the only place the phase changes.
// Entering an install-burst phase stamps the burst and enqueues its jobs —
// none at all (every member pinned, nothing left to release or roll back)
// drains on the spot, and drained enters the next phase from here.
func (c *Controller) enter(p wavePhase, now netsim.Time, jobs []installJob) {
	c.phase = p
	switch p {
	case phaseIdle:
		c.canaries = nil
	case phaseObserve:
		c.obsStart = now
		epoch := c.cur.epoch
		c.eng.After(c.cfg.CanaryWindow, func() { c.canaryVerdict(epoch) })
	default:
		c.segStart = now
		for _, j := range jobs {
			c.enqueue(j)
		}
		c.updateStale()
		c.drained()
	}
}

// drained advances the rollout once no install is queued or in flight, by the
// rollout table's row for the phase whose burst that was.
func (c *Controller) drained() {
	row := rollout[c.phase]
	if c.inFlight > 0 || len(c.queue) > 0 || row.child == "" {
		return
	}
	now := c.eng.Now()
	c.wave.Child(row.child, c.segStart, now-c.segStart)
	if row.ends {
		c.closeWave(now, row.failed)
	}
	c.enter(row.next, now, nil)
}

// closeWave ends the open rollout span — failed, when a reason is given — and
// frees the slot for the next aggregation round's root.
func (c *Controller) closeWave(now netsim.Time, failed string) {
	if failed != "" {
		c.wave.EndFailed(now, failed)
	} else {
		c.wave.End(now)
	}
	c.wave = nil
}

// enqueue adds one member install and pumps the bounded-concurrency queue.
func (c *Controller) enqueue(j installJob) {
	j.m.installing = true
	c.queue = append(c.queue, j)
	c.pump()
}

// pump starts queued installs while concurrency slots are free. A stopped
// controller leaves the queue alone — Stop abandons it.
func (c *Controller) pump() {
	if !c.running {
		return
	}
	for c.inFlight < c.cfg.MaxConcurrentInstalls && len(c.queue) > 0 {
		j := c.queue[0]
		c.queue = c.queue[1:]
		c.install(j)
	}
}

// install ships one version to one member over its netlink channel; the
// kernel half is core.Core.Install, and landed books how it ended.
func (c *Controller) install(j installJob) {
	c.inFlight++
	start := c.eng.Now()
	err := j.m.Chan.SendToKernel(j.mod.Program.NumParams()*8, func() {
		if !c.running {
			// Stop raced the transfer: a dead controller must not keep
			// registering and activating models on member cores.
			j.m.installing = false
			c.inFlight--
			c.st.InstallsAbandoned++
			c.sc.Event2("fleet", "install_aborted", c.eng.Now(), "member", int64(j.m.Index), "epoch", j.epoch)
			return
		}
		_, err := j.m.Core.Install(j.mod)
		c.landed(j, start, err)
	})
	if err != nil {
		c.landed(j, start, err)
	}
}

// landed books one member install that began at start and ended with err:
// nil, the member runs j's version; core.ErrDegraded, the member core holds
// it as the parked standby for catchUp; anything else — a rejected module, a
// closed channel — the install is lost and counts as abandoned. Either way
// the slot is free, and the wave may have drained.
func (c *Controller) landed(j installJob, start netsim.Time, err error) {
	m, member, now := j.m, int64(j.m.Index), c.eng.Now()
	switch {
	case err == nil:
		m.epoch = j.epoch
		if j.rollback {
			c.st.Rollbacks++
			c.sc.Event2("fleet", "rollback", now, "member", member, "epoch", j.epoch)
			c.spans.Lone("snapshot", "member_rollback", j.epoch, member, start, now-start)
		} else {
			c.st.MemberInstalls++
			c.sc.Event2("fleet", "install", now, "member", member, "epoch", j.epoch)
			// Standalone spans keyed by the epoch pid: catch-up installs of an
			// already-drained wave still join that version's tree.
			c.spans.Lone("snapshot", "member_install", j.epoch, member, start, now-start)
			c.spans.Lone("snapshot", "member_activate", j.epoch, member, now, 0)
		}
	case errors.Is(err, core.ErrDegraded):
		m.parkedEpoch = j.epoch
		c.st.InstallsParked++
		c.sc.Event2("fleet", "install_parked", now, "member", member, "epoch", j.epoch)
		if c.wave.Version() == j.epoch {
			c.wave.MarkMember("install_parked", member, now)
		}
	default:
		c.st.InstallsAbandoned++
		c.sc.Event2("fleet", "install_rejected", now, "member", member, "epoch", j.epoch)
	}
	m.installing = false
	c.inFlight--
	c.updateStale()
	c.pump()
	c.drained()
}

func (c *Controller) pinnedMembers() int {
	pinned := 0
	for _, m := range c.members {
		if m.pinned {
			pinned++
		}
	}
	return pinned
}

// updateStale refreshes the staleness and pinned gauges after any epoch or
// pin movement.
func (c *Controller) updateStale() {
	c.st.StaleMembers, c.st.PinnedMembers = c.StaleMembers(), c.pinnedMembers()
}
