// Package core implements LiteFlow itself (paper §3–§4): the kernel-space
// core module — NN manager, inference router with active/standby snapshot
// switching and a flow-consistency cache — plus the userspace service that
// drives the slow path: batched online adaptation, convergence
// ("correctness") detection, fidelity ("necessity") evaluation, and
// conservative snapshot installation.
//
// The paper's Table 1 API maps onto this package as:
//
//	lf_register_model → (*Core).RegisterModel
//	lf_query_model    → (*Core).QueryModel
//
// lf_register_io/lf_unregister_io are not modelled: a datapath function here
// calls QueryModel directly, with no collector/enforcer module in between.
package core

import (
	"fmt"

	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// Model is an installed NN snapshot: a generated module plus its runtime
// state in the NN manager (reference count from the flow cache, role flags).
type Model struct {
	Name    string
	prog    *quant.Program
	cost    netsim.Time // modeled kernel CPU work of one query
	refs    int
	retired bool // replaced as active; unloadable once refs == 0
}

// InputSize returns the snapshot's input dimension.
func (m *Model) InputSize() int { return m.prog.InputSize() }

// OutputSize returns the snapshot's output dimension.
func (m *Model) OutputSize() int { return m.prog.OutputSize() }

// Program exposes the executable snapshot (integer-only inference).
func (m *Model) Program() *quant.Program { return m.prog }

// Cost returns the modeled kernel CPU work of one inference on the snapshot,
// at the registering core's KernelInferPerMAC.
func (m *Model) Cost() netsim.Time { return m.cost }

// Refs returns the flow-cache reference count.
func (m *Model) Refs() int { return m.refs }

// Alpha scales the necessity threshold: update only when the minimal
// fidelity loss exceeds Alpha·(Omax−Omin). Paper value: 5%.
const Alpha = 0.05

// Config tunes the framework's update policy.
type Config struct {
	// OutMin/OutMax are the model's output range (Omax, Omin in the
	// paper; for Aurora these are −1 and 1).
	OutMin, OutMax float64
	// StabilityWindow is how many consecutive batches the stability
	// metric must stay within StabilityTolerance (relative range) before
	// online adaptation counts as converged — the correctness gate.
	StabilityWindow    int
	StabilityTolerance float64
	// FlowCacheTimeout evicts idle flow-cache entries. Zero disables the
	// sweeper. Expiry runs on a hashed timing wheel of sweepWheelSlots
	// ticks, so an idle entry is evicted less than two ticks
	// (FlowCacheTimeout/64 each) after its deadline and each tick's work is
	// proportional to the entries expiring, not to the cache size.
	FlowCacheTimeout netsim.Time
	// Quant configures snapshot generation.
	Quant quant.Config
	// WatchdogWindow is the longest slow-path silence the core tolerates:
	// once a slow path attaches, the watchdog checks every WatchdogWindow/2
	// and, if no batch reached the slow path within the window, degrades to
	// the last-good snapshot (pending standby discarded) and counts
	// liteflow_core_degraded_total. Zero means no watchdog.
	WatchdogWindow netsim.Time
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		OutMin:             -1,
		OutMax:             1,
		StabilityWindow:    5,
		StabilityTolerance: 0.15,
		FlowCacheTimeout:   10 * netsim.Second,
		Quant:              quant.DefaultConfig(),
	}
}

// Stats counts core-module activity. The core counts into its own Stats, and
// its scope exports each field as a counter view.
type Stats struct {
	Queries        int64
	CacheHits      int64
	CacheMisses    int64
	Switches       int64
	Installs       int64
	Unloads        int64
	SweptEntries   int64
	SweepScans     int64 // flow-cache entries examined by sweep ticks
	BlockedQueries int64
	Degraded       int64 // watchdog degradations to the last-good snapshot
	Recovered      int64 // recoveries after the slow path came back
}

// register exports the core's counts and histograms on sc.
func (c *Core) register(sc obs.Scope) {
	st := &c.st
	sc.CounterOf("liteflow_core_queries_total", "lf_query_model invocations", &st.Queries)
	sc.CounterOf("liteflow_core_flow_cache_hits_total", "flow-cache lookups served by a pinned snapshot", &st.CacheHits)
	sc.CounterOf("liteflow_core_flow_cache_misses_total", "flow-cache lookups that pinned the active snapshot", &st.CacheMisses)
	sc.CounterOf("liteflow_core_snapshot_switches_total", "active/standby role switches", &st.Switches)
	sc.CounterOf("liteflow_core_snapshot_installs_total", "snapshot modules loaded into the NN manager", &st.Installs)
	sc.CounterOf("liteflow_core_snapshot_unloads_total", "retired snapshots removed at refcount 0", &st.Unloads)
	sc.CounterOf("liteflow_core_flow_cache_swept_total", "idle flow-cache entries evicted by the sweeper", &st.SweptEntries)
	sc.CounterOf("liteflow_core_sweep_scan_total", "flow-cache entries examined by sweep ticks (incremental eviction work)", &st.SweepScans)
	sc.CounterOf("liteflow_core_blocked_queries_total", "distinct fast-path queries stalled by a blocking install", &st.BlockedQueries)
	sc.CounterOf("liteflow_core_degraded_total", "watchdog degradations to the last-good snapshot after slow-path silence", &st.Degraded)
	sc.CounterOf("liteflow_core_recovered_total", "recoveries from degraded mode after the slow path resumed", &st.Recovered)
	c.stallNS = sc.Histogram("liteflow_core_stall_ns", "per-query stall caused by blocking installs", obs.DurationBuckets())
	c.queryNS = sc.Histogram("liteflow_query_ns", "modeled kernel fast-path cost of one lf_query_model inference", obs.QueryBuckets())
}

// Core is the kernel-space LiteFlow core module.
type Core struct {
	Eng   *netsim.Engine
	CPU   *ksim.CPU // optional CPU accounting
	Costs ksim.Costs
	Cfg   Config

	// NN manager state.
	models []*Model

	// Inference router state (paper §3.4). The paper guards the role swap
	// with a spin lock held for three lines; the simulator is single-
	// threaded, so the swap is a plain pointer assignment with the same
	// semantics.
	active  *Model
	standby *Model

	// Flow cache: flow ID → snapshot pinned for that flow, with an expiry
	// timing wheel (flowcache.go).
	cacheEnabled bool
	fc           *flowCache

	// lockedUntil models the naive blocking-install alternative (§3.4):
	// while set in the future, fast-path queries stall until release.
	lockedUntil netsim.Time

	sc               obs.Scope
	st               Stats
	stallNS, queryNS *obs.Histogram

	// Sweeper lifecycle: sweeping is the configuration switch (timeout > 0
	// and StopSweeper not called); sweeper runs a tick chain while the wheel
	// holds references. It starts on a cache insert and ends itself when the
	// wheel drains, so an idle core schedules no events at all.
	sweeping    bool
	sweeper     *netsim.Ticker
	maxTickScan int64

	// arena is the core's private inference scratch (paper: per-core
	// execution state so snapshots stay immutable and shareable). It grows
	// when a wider model is installed and is reused by every query, so the
	// steady-state fast path performs zero heap allocations.
	arena quant.Arena
	// flowScratch backs sortedCachedFlows so bulk drops and sweeps do not
	// allocate per tick.
	flowScratch []netsim.FlowID

	// Slow-path watchdog state (Config.WatchdogWindow): when armed and the
	// service stays silent past the window, the core degrades to the
	// last-good snapshot rather than waiting on a stalled slow path forever.
	watchdog     *netsim.Ticker
	lastAlive    netsim.Time
	degraded     bool
	degradeStart netsim.Time
}

// NewCore returns a core module bound to eng. cpu may be nil to disable CPU
// accounting (pure-algorithm tests). Options: opt.WithScope exports the
// core's counters to a metrics registry and its datapath events to a tracer
// (omitted, telemetry is a no-op but Stats still counts). A nonzero
// cfg.WatchdogWindow enables graceful degradation when the slow path stalls;
// the watchdog arms once a slow path attaches.
func NewCore(eng *netsim.Engine, cpu *ksim.CPU, costs ksim.Costs, cfg Config, options ...opt.Option) *Core {
	o := opt.Resolve(options)
	c := &Core{
		Eng: eng, CPU: cpu, Costs: costs, Cfg: cfg,
		cacheEnabled: true,
		fc:           newFlowCache(cfg.FlowCacheTimeout),
		sc:           o.Scope,
	}
	c.register(c.sc)
	// The sweeper arms lazily on the first cache insert (armSweeper), so a
	// core whose cache is never populated schedules no sweep events.
	c.sweeping = cfg.FlowCacheTimeout > 0
	c.sweeper = netsim.NewTicker(eng, c.sweepTick)
	c.watchdog = netsim.NewTicker(eng, c.watchdogTick)
	return c
}

// Obs returns the core's instrumentation scope (the no-op scope when none
// was supplied to NewCore).
func (c *Core) Obs() obs.Scope { return c.sc }

// SetFlowCache enables or disables flow-consistency caching (the paper lets
// users disable it for functions that do not need it, e.g. per-packet load
// balancing decisions).
func (c *Core) SetFlowCache(enabled bool) {
	c.cacheEnabled = enabled
	if !enabled {
		for _, f := range c.sortedCachedFlows() {
			c.dropEntry(f)
		}
		// Every wheel reference is now stale; discard them and cancel any
		// queued tick instead of letting the sweeper drain them one by one.
		c.fc.resetWheel()
		c.sweeper.Stop()
	}
}

// sortedCachedFlows returns the cached flow IDs in ascending order (see
// flowCache.appendSortedFlows for why bulk drops must not depend on table
// order). The returned slice aliases a core-owned scratch buffer,
// valid until the next call.
func (c *Core) sortedCachedFlows() []netsim.FlowID {
	c.flowScratch = c.fc.appendSortedFlows(c.flowScratch[:0])
	return c.flowScratch
}

// Stats returns a copy of the core's counters.
func (c *Core) Stats() Stats { return c.st }

// Models returns the number of loaded snapshot modules.
func (c *Core) Models() int { return len(c.models) }

// Active returns the active snapshot, or nil before the first registration.
func (c *Core) Active() *Model { return c.active }

// RegisterModel is lf_register_model: it loads a generated module into the
// NN manager. The first registered model becomes active immediately; later
// registrations become the standby snapshot, awaiting Activate.
func (c *Core) RegisterModel(mod *codegen.Module) (*Model, error) {
	if mod == nil || mod.Program == nil {
		return nil, ErrNilModule
	}
	if c.active != nil {
		if mod.Program.InputSize() != c.active.InputSize() ||
			mod.Program.OutputSize() != c.active.OutputSize() {
			return nil, fmt.Errorf("%w: module %q dims %dx%d do not match active %dx%d",
				ErrDimensionMismatch,
				mod.Name, mod.Program.InputSize(), mod.Program.OutputSize(),
				c.active.InputSize(), c.active.OutputSize())
		}
	}
	m := &Model{Name: mod.Name, prog: mod.Program,
		cost: ksim.InferCost(c.Costs.KernelInferPerMAC, mod.Program.MACs())}
	c.models = append(c.models, m)
	c.st.Installs++
	c.sc.EventStr("snapshot", "install", c.Eng.Now(), "model", mod.Name)
	if c.active == nil {
		c.active = m
	} else {
		// Replacing an un-activated standby retires it immediately.
		if c.standby != nil {
			c.standby.retired = true
		}
		c.standby = m
	}
	c.unloadDead()
	return m, nil
}

// Activate is the inference router's role switch: the standby snapshot
// becomes active. Existing cached flows keep their pinned snapshot (flow
// consistency); new flows use the new active. It returns ErrNoStandby when
// no standby is installed, and ErrDegraded while the watchdog has the core
// pinned to its last-good snapshot — a stalled service's queued netlink
// messages may still arrive and attempt an install, but a half-delivered
// update must never be activated. The rejected standby stays registered and
// can be activated after recovery (NoteSlowPathAlive).
func (c *Core) Activate() error {
	if c.degraded {
		return ErrDegraded
	}
	if c.standby == nil {
		return ErrNoStandby
	}
	old := c.active
	c.active = c.standby
	c.standby = nil
	if old != nil {
		old.retired = true
	}
	c.st.Switches++
	c.sc.EventStr("snapshot", "activate", c.Eng.Now(), "model", c.active.Name)
	c.unloadDead()
	return nil
}

// Install is the kernel half of a snapshot install, the insmod of §3.4: the
// module load is charged per parameter to the kernel CPU while the active
// snapshot keeps serving, then RegisterModel and Activate run the
// active-standby switch. The error says how it ended: nil, the switch is done;
// ErrDegraded, the module stays registered as the standby, parked until the
// slow path is heard from again (Activate then switches to it); anything else,
// the module was rejected — m is nil when RegisterModel refused it.
func (c *Core) Install(mod *codegen.Module) (m *Model, err error) {
	if mod == nil || mod.Program == nil {
		return nil, ErrNilModule
	}
	if c.CPU != nil {
		c.CPU.Charge(ksim.Kernel, c.Costs.SnapshotInstallPerParam*netsim.Time(mod.Program.NumParams()))
	}
	if m, err = c.RegisterModel(mod); err != nil {
		return nil, err
	}
	return m, c.Activate()
}

// InstallBlocking replaces the active snapshot the naive way the paper warns
// against (§3.4): one lock held across the entire parameter transfer and
// module initialization, stalling every fast-path query for installTime.
// It exists as the measurable baseline for the active-standby-switch
// ablation; production code should use RegisterModel + Activate, whose
// role switch costs a pointer swap.
func (c *Core) InstallBlocking(mod *codegen.Module, installTime netsim.Time) error {
	if _, err := c.RegisterModel(mod); err != nil {
		return err
	}
	if err := c.Activate(); err != nil {
		return err
	}
	if c.CPU != nil {
		c.CPU.Charge(ksim.Kernel, installTime)
	}
	until := c.Eng.Now() + installTime
	if until > c.lockedUntil {
		c.lockedUntil = until
	}
	c.sc.Span("snapshot", "blocking_install", c.Eng.Now(), installTime)
	return nil
}

// LockRemaining returns how long fast-path queries remain stalled by a
// blocking install (0 when unlocked).
func (c *Core) LockRemaining() netsim.Time {
	if rem := c.lockedUntil - c.Eng.Now(); rem > 0 {
		return rem
	}
	return 0
}

// QueryModel is lf_query_model, the unified inference interface: it resolves
// the snapshot for the flow through the router (honoring the flow cache),
// charges the kernel inference cost, and runs integer inference in to out.
// Steady-state queries (flow already cached) perform zero heap allocations.
func (c *Core) QueryModel(flow netsim.FlowID, in, out []int64) error {
	m := c.lookup(flow)
	if m == nil {
		return ErrNoModel
	}
	c.infer(m, in, out)
	return nil
}

// infer runs one inference on m and accounts for it: the query counter, the
// modeled per-query cost in liteflow_query_ns, the kernel CPU charge.
func (c *Core) infer(m *Model, in, out []int64) {
	c.st.Queries++
	if c.CPU != nil {
		c.CPU.Charge(ksim.Kernel, m.cost)
	}
	c.queryNS.Observe(float64(m.cost))
	m.prog.InferWith(&c.arena, in, out)
}

// lookup resolves the model serving a flow, maintaining the flow cache and
// reference counts (paper §3.4).
func (c *Core) lookup(flow netsim.FlowID) *Model {
	if !c.cacheEnabled {
		return c.active
	}
	if e := c.fc.get(flow); e != nil {
		c.st.CacheHits++
		c.sc.Event1("flowcache", "hit", c.Eng.Now(), "flow", int64(flow))
		// Lazy renewal: only the timestamp moves. The entry's wheel
		// reference stays parked and is re-parked when its bucket comes
		// due, keeping the hit path at zero allocations.
		e.lastUsed = c.Eng.Now()
		return e.model
	}
	if c.active == nil {
		return nil
	}
	c.st.CacheMisses++
	c.sc.Event1("flowcache", "miss", c.Eng.Now(), "flow", int64(flow))
	c.active.refs++
	c.fc.insert(flow, c.active, c.Eng.Now())
	c.armSweeper()
	return c.active
}

// FlowFinished removes a flow's cache entry (TCP FIN handling).
func (c *Core) FlowFinished(flow netsim.FlowID) {
	c.dropEntry(flow)
}

func (c *Core) dropEntry(flow netsim.FlowID) {
	m, ok := c.fc.remove(flow)
	if !ok {
		return
	}
	m.refs--
	c.sc.Event1("flowcache", "evict", c.Eng.Now(), "flow", int64(flow))
	c.unloadDead()
}

// CachedFlows returns the number of live flow-cache entries.
func (c *Core) CachedFlows() int { return c.fc.n }

// MaxSweepTickScan returns the largest number of wheel references any single
// sweep tick has examined — the per-tick work bound the incremental sweeper
// exists to enforce (proportional to expirations, never to cache size).
func (c *Core) MaxSweepTickScan() int64 { return c.maxTickScan }

// unloadDead removes retired models whose reference count reached zero — the
// paper's rule that a NN module can be removed only at refcount 0.
func (c *Core) unloadDead() {
	kept := c.models[:0]
	for _, m := range c.models {
		if m.retired && m.refs <= 0 && m != c.active && m != c.standby {
			c.st.Unloads++
			c.sc.EventStr("snapshot", "unload", c.Eng.Now(), "model", m.Name)
			continue
		}
		kept = append(kept, m)
	}
	c.models = kept
}

// armSweeper starts the sweep tick chain if the sweeper is enabled and no
// chain is live. Called on every cache insert; once the wheel drains the
// chain ends itself, so an idle or empty cache costs no events.
func (c *Core) armSweeper() {
	if !c.sweeping || c.sweeper.Running() || c.fc.tick <= 0 {
		return
	}
	c.fc.next = c.Eng.Now()/c.fc.tick + 1
	c.sweeper.Start(c.fc.tick)
}

// sweepTick is one turn of the expiry wheel: it drains the bucket(s) whose
// slots came due since the previous tick, evicting entries idle for at least
// FlowCacheTimeout (deadline <= now — an entry idle for exactly the timeout
// goes now, not a full period later) and re-parking entries a cache hit
// renewed since they were parked. Work per tick is proportional to the
// references in the due buckets, never to the cache size; the scan count
// feeds liteflow_core_sweep_scan_total so that bound is observable.
func (c *Core) sweepTick() (netsim.Time, bool) {
	fc := c.fc
	now := c.Eng.Now()
	cur := now / fc.tick
	var swept, scanned int64
	for s := fc.next; s <= cur; s++ {
		for _, f := range fc.takeBucket(s) {
			scanned++
			e := fc.get(f)
			if e == nil || e.slot != s {
				continue // stale: flow finished or re-cached since parking
			}
			if e.lastUsed+fc.timeout <= now {
				c.dropEntry(f)
				swept++
			} else {
				fc.park(e)
			}
		}
	}
	fc.next = cur + 1
	c.st.SweepScans += scanned
	if scanned > c.maxTickScan {
		c.maxTickScan = scanned
	}
	c.st.SweptEntries += swept
	if swept > 0 {
		c.sc.Event1("flowcache", "sweep", now, "swept", swept)
	}
	// The chain ends once the wheel drains; the next cache insert starts it
	// again.
	return fc.tick, fc.parked > 0
}

// StopSweeper halts the idle-entry sweeper (experiment teardown).
func (c *Core) StopSweeper() {
	c.sweeping = false
	c.sweeper.Stop()
}

// AttachSlowPath arms the watchdog when Config.WatchdogWindow is nonzero.
// NewSlowPath calls it, and so does an external slow path — such as a fleet
// controller — that feeds liveness through NoteSlowPathAlive without
// constructing a Service; a core with neither never degrades.
func (c *Core) AttachSlowPath() {
	if c.Cfg.WatchdogWindow <= 0 || c.watchdog.Running() {
		return
	}
	c.lastAlive = c.Eng.Now()
	c.watchdog.Start(c.Cfg.WatchdogWindow / 2)
}

// watchdogTick runs every WatchdogWindow/2: if the slow path has been silent
// longer than the window, the core degrades gracefully — it pins the
// last-good (current active) snapshot by discarding any pending standby, so
// a half-delivered update from the stalled service can never be activated,
// and keeps serving fast-path queries throughout. Degradation is visible in
// liteflow_core_degraded_total and a "core/degrade" trace event.
func (c *Core) watchdogTick() (netsim.Time, bool) {
	now := c.Eng.Now()
	if !c.degraded && now-c.lastAlive > c.Cfg.WatchdogWindow {
		c.degraded = true
		c.st.Degraded++
		if c.standby != nil {
			c.standby.retired = true
			c.standby = nil
			c.unloadDead()
		}
		c.degradeStart = now
		c.sc.Event1("core", "degrade", now, "silence_ns", int64(now-c.lastAlive))
	}
	return c.Cfg.WatchdogWindow / 2, true
}

// NoteSlowPathAlive records slow-path liveness (the service calls it for
// every batch it accepts). A degraded core recovers here.
func (c *Core) NoteSlowPathAlive() {
	c.lastAlive = c.Eng.Now()
	if c.degraded {
		c.degraded = false
		c.st.Recovered++
		now := c.Eng.Now()
		c.sc.Event("core", "recover", now)
		// The whole degraded window as one span: how long the core served
		// pinned to its last-good snapshot before the slow path came back.
		c.sc.Span("core", "degraded_window", c.degradeStart, int64(now-c.degradeStart))
	}
}

// Degraded reports whether the watchdog currently has the core pinned to
// its last-good snapshot.
func (c *Core) Degraded() bool { return c.degraded }

// StopWatchdog halts the slow-path watchdog (experiment teardown).
func (c *Core) StopWatchdog() { c.watchdog.Stop() }

// FlowBackend adapts the core to the cc.Backend interface for one flow:
// queries run through lf_query_model against the flow's pinned snapshot,
// synchronously, at kernel inference cost — the LiteFlow fast path.
type FlowBackend struct {
	Core *Core
	Flow netsim.FlowID

	in  []int64
	out []int64
}

// NewFlowBackend returns a fast-path inference backend for the given flow.
func NewFlowBackend(c *Core, flow netsim.FlowID) *FlowBackend {
	return &FlowBackend{Core: c, Flow: flow}
}

// Query implements the cc.Backend contract (structurally; cc is not
// imported): quantize, infer through the router, dequantize, reply inline.
// While a blocking install holds the router lock, the query stalls until
// release — the datapath interference the active-standby design eliminates.
func (b *FlowBackend) Query(state []float64, reply func(action float64)) {
	b.query(state, reply, -1)
}

// query carries the time the query first stalled (-1 when it has not). A
// blocked query counts once however many times it re-checks the lock, and
// its total stall is recorded when it finally runs.
func (b *FlowBackend) query(state []float64, reply func(action float64), stallStart netsim.Time) {
	c := b.Core
	if rem := c.LockRemaining(); rem > 0 {
		if stallStart < 0 {
			stallStart = c.Eng.Now()
			c.st.BlockedQueries++
		}
		c.Eng.After(rem, func() { b.query(state, reply, stallStart) })
		return
	}
	if stallStart >= 0 {
		stall := c.Eng.Now() - stallStart
		c.stallNS.Observe(float64(stall))
		c.sc.Span1("snapshot", "stall", stallStart, stall, "flow", int64(b.Flow))
	}
	m := c.lookup(b.Flow)
	if m == nil {
		reply(0)
		return
	}
	if cap(b.in) < len(state) {
		b.in = make([]int64, len(state))
		b.out = make([]int64, m.OutputSize())
	}
	b.in = b.in[:len(state)]
	prog := m.prog
	for i, x := range state {
		b.in[i] = int64(x * quant.InputScale)
	}
	c.infer(m, b.in, b.out[:prog.OutputSize()])
	a := float64(b.out[0]) / float64(prog.OutputScale)
	if a > 1 {
		a = 1
	}
	if a < -1 {
		a = -1
	}
	reply(a)
}
