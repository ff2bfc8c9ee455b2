package rig

import (
	"math/rand"
	"strconv"

	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/fleet"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
	"github.com/liteflow-sim/liteflow/internal/topo"
)

// NewFabric builds a spine–leaf fabric on eng, which becomes the fabric's Eng,
// and, when cores > 0, gives every host a CPU with the default cost table.
// The caller names the family: netsim.NewParallelEngine when every schedule
// stays inside a host or goes through a link, netsim.NewEngine when something
// schedules across hosts directly (DESIGN.md §4a).
func NewFabric(eng *netsim.Engine, o topo.SpineLeafOpts, cores int) *topo.SpineLeaf {
	f := topo.BuildSpineLeaf(eng, o)
	if cores > 0 {
		f.ProvisionCPUs(cores, ksim.DefaultCosts())
	}
	return f
}

// DriftUser is the fleet scenarios' slow-path model: the embedded network
// answers freezing and evaluation, stability is constant (the correctness
// gate opens after one window), and every DriftEvery pooled adaptation rounds
// the output bias jumps by ±0.5 — a traffic-dynamics step large enough to
// trip the necessity gate and mint a new fleet epoch, after which the rebuilt
// snapshot tracks the drifted net and the gate goes quiet until the next
// jump. Callers end the drift (DriftEvery = 0) or swap Network mid-run from
// an engine event.
type DriftUser struct {
	*nn.Network
	DriftEvery int // 0 disables drift
	rounds     int
	sign       float64
}

func (u *DriftUser) Stability() float64 { return 0.5 }

func (u *DriftUser) Adapt([]core.Sample) {
	u.rounds++
	if u.DriftEvery > 0 && u.rounds%u.DriftEvery == 0 {
		out := u.Layers[len(u.Layers)-1]
		out.B[0] += u.sign * 0.5
		u.sign = -u.sign
	}
}

// Stream shapes every member's datapath query stream.
type Stream struct {
	Every netsim.Time // base inter-query gap
	// Density, when non-nil, divides the gap by the workload's relative
	// arrival density at the current fraction of the run (floored at 0.05 so
	// a zero-trough diurnal never stalls a member). Nil is a flat cadence.
	Density func(frac float64) float64
	// ClosedLoop makes each query also occupy its member for the active
	// snapshot's modeled kernel inference cost, tying per-member goodput
	// inversely to the snapshot's MAC count.
	ClosedLoop bool
	// FlowLen > 0 ends each flow after that many queries (FIN + the next ID
	// of the member's 1M-ID block): snapshots pin per flow at first use (§3.4
	// flow consistency), so churn is what lets new flows pick up a freshly
	// activated version. 0 keeps one flow per member.
	FlowLen int
}

// FleetOpts configures a fleet rig.
type FleetOpts struct {
	// Members is the fleet size: one 4-core host CPU per member.
	Members int
	Seed    int64
	// Agg is the member batch interval and the controller's aggregation
	// interval. Queries counts inside [0, Dur); streams and ticks run to End.
	Agg, Dur, End netsim.Time
	// CanaryCount > 0 stages every minted epoch through that many canary
	// members for CanaryWindow (0 = 4 aggregation intervals) before release.
	CanaryCount  int
	CanaryWindow netsim.Time
	// OddFaults (zero = none) gives every odd-indexed member's netlink
	// channel its own injector with this profile, seeded from Seed and the
	// host index: the channel draws its netlink faults, the controller its
	// outages.
	OddFaults fault.Profile
	// A canary gate provisions a private registry/recorder where
	// Scope/Flight bring none.
	Scope       obs.Scope
	Flight      *obs.FlightRecorder // samples Scope's registry every FlightEvery (0 = Agg/2)
	FlightEvery netsim.Time
	Stream      Stream
}

// Fleet is one fleet.Controller slow path serving a kernel datapath on each
// member's host CPU, under a drifting model and per-member query streams.
// Members exchange no packets, so there is no network between them.
type Fleet struct {
	Eng  *netsim.Engine
	Ctrl *fleet.Controller
	User *DriftUser
	// Queries counts successful member queries issued before Dur.
	Queries int64
}

// NewFleet provisions the member CPUs, starts the fleet plane, and arms the
// member query streams and the flight tick.
func NewFleet(o FleetOpts) *Fleet {
	// Telemetry is passive (experiments.TestTelemetryIsPassive holds every
	// report to it), so a gated run, whose verdicts read the flight
	// recording, simulates the same thing on private telemetry as on the
	// caller's.
	sc, fr := o.Scope, o.Flight
	if o.CanaryCount > 0 {
		if sc.Registry() == nil {
			sc = obs.New(obs.NewRegistry(), nil)
		}
		if fr == nil {
			fr = obs.NewFlightRecorder(0)
		}
	}
	// One partition: the controller schedules install callbacks and
	// aggregation ticks straight onto member CPUs, which is exactly the
	// cross-partition scheduling a windowed run forbids (DESIGN.md §4h).
	eng := netsim.NewEngine()
	costs := ksim.DefaultCosts()

	f := &Fleet{Eng: eng, User: &DriftUser{
		Network:    nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, o.Seed),
		DriftEvery: 6,
		sign:       1,
	}}
	ccfg := core.DefaultConfig()
	// The member cores' watchdog: a few missed batch intervals mean the slow
	// path is dark for a member, so it degrades instead of waiting on a
	// half-installed standby. The controller reads no window.
	ccfg.WatchdogWindow = 4 * o.Agg
	fcfg := fleet.Config{
		BatchInterval:         o.Agg,
		AggregationInterval:   o.Agg,
		MaxConcurrentInstalls: 2,
	}
	if o.CanaryCount > 0 {
		fcfg.CanaryCount = o.CanaryCount
		fcfg.CanaryWindow = o.CanaryWindow
		if fcfg.CanaryWindow <= 0 {
			fcfg.CanaryWindow = 4 * o.Agg
		}
		fcfg.Flight = fr
	}
	f.Ctrl = fleet.New(eng, ccfg, f.User, f.User, f.User, fcfg, opt.WithScope(sc))
	// Every member gets a core.Core + netlink.Channel pair on its own CPU,
	// enrolled in ascending host order (the deterministic merge order of
	// DESIGN.md §4d), all three labelled host="<i>".
	for i := 0; i < o.Members; i++ {
		hsc := opt.WithScope(sc.With(obs.Label{Key: "host", Value: strconv.Itoa(i)}))
		cpu := ksim.NewHostCPU(eng, 4, hsc)
		co := core.NewCore(eng, cpu, costs, ccfg, hsc)
		ch := netlink.NewChannel(eng, cpu, costs, nil, hsc)
		if o.OddFaults.Active() && i%2 == 1 {
			ch.SetFaults(fault.New(o.OddFaults, o.Seed*1009+int64(i), sc))
		}
		if _, err := f.Ctrl.AddMember(co, ch); err != nil {
			panic("rig: fleet member " + strconv.Itoa(i) + ": " + err.Error())
		}
	}
	if err := f.Ctrl.Start(); err != nil {
		panic("rig: fleet: " + err.Error())
	}

	for _, m := range f.Ctrl.Members() {
		f.stream(m, o)
	}
	every := o.FlightEvery
	if every <= 0 {
		every = o.Agg / 2
	}
	flightTick(eng, fr, sc.Registry(), every, o.End)
	return f
}

// stream arms one member's datapath: seeded queries against the member core,
// each mirrored into its sample batch (the paper's kernel-side collector).
func (f *Fleet) stream(m *fleet.Member, o FleetOpts) {
	eng, s := f.Eng, o.Stream
	rng := rand.New(rand.NewSource(o.Seed + 31*int64(m.Index)))
	in := make([]int64, 4)
	out := make([]int64, 1)
	flow := netsim.FlowID(m.Index + 1)
	if s.FlowLen > 0 {
		flow = netsim.FlowID(m.Index*1_000_000 + 1)
	}
	gap := func() netsim.Time {
		if s.Density == nil {
			return s.Every
		}
		den := s.Density(float64(eng.Now()) / float64(o.End))
		if den < 0.05 {
			den = 0.05
		}
		return netsim.Time(float64(s.Every) / den)
	}
	sent := 0
	input := make([]float64, 4)
	var enc []float64
	netsim.NewTicker(eng, func() (netsim.Time, bool) {
		for k := range input {
			input[k] = rng.Float64()*2 - 1
		}
		if act := m.Core.Active(); act != nil {
			act.Program().QuantizeInput(input, in)
		}
		if err := m.Core.QueryModel(flow, in, out); err == nil && eng.Now() < o.Dur {
			f.Queries++
		}
		enc = core.AppendSample(enc[:0], core.Sample{Input: input})
		m.Chan.Push(netlink.Message{Data: enc, At: eng.Now()})
		if sent++; s.FlowLen > 0 && sent%s.FlowLen == 0 {
			m.Core.FlowFinished(flow)
			flow++
		}
		next := gap()
		if act := m.Core.Active(); s.ClosedLoop && act != nil {
			next += act.Cost()
		}
		return next, eng.Now() < o.End
	}).Start(gap())
}

// Stop halts the controller and every member core's background activity.
func (f *Fleet) Stop() {
	f.Ctrl.Stop()
	for _, m := range f.Ctrl.Members() {
		m.Core.StopSweeper()
	}
}
