package experiments

import (
	"fmt"
	"strings"

	"github.com/liteflow-sim/liteflow/internal/fleet"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/rig"
)

// bloat returns a functionally offset copy of base with its hidden layer
// padded to the given width: the original hidden units (weights and biases)
// are embedded verbatim, the padding units get random input weights but zero
// output weights, and the output bias shifts by off — so bloated(x) equals
// base(x) + off up to rounding, not exactly: the output sum starts from the
// bias B+off rather than B, so its partial sums round at another magnitude,
// and the two often differ in the last bits (the padding's zero weights add
// exact zeros). Both sum the same terms, so for a base of n tanh hidden units
// with output bias B and weights w they are within (n+2)·ε·(|B|+|off|+Σ|w|)
// of each other, ε = 2⁻⁵². The offset keeps the fleet necessity gate's
// min-loss strictly above threshold (a fresh random net would cross the old
// function somewhere and let the minimum collapse to ~0), while the padding
// inflates the MAC count ~250× — the degradation the canary must catch.
func bloat(base *nn.Network, hidden int, off float64, seed int64) *nn.Network {
	n := nn.New([]int{base.InputSize(), hidden, base.OutputSize()},
		[]nn.Activation{nn.Tanh, nn.Linear}, seed)
	l1, l2 := base.Layers[0], base.Layers[1]
	b1, b2 := n.Layers[0], n.Layers[1]
	for i := 0; i < l1.Out; i++ {
		copy(b1.W[i], l1.W[i])
		b1.B[i] = l1.B[i]
	}
	for o := 0; o < l2.Out; o++ {
		for j := range b2.W[o] {
			if j < l1.Out {
				b2.W[o][j] = l2.W[o][j]
			} else {
				b2.W[o][j] = 0
			}
		}
		b2.B[o] = l2.B[o] + off
	}
	return n
}

// CanaryScenarioOpts parameterizes one bad-push run of the canary scenario.
type CanaryScenarioOpts struct {
	Members     int         // fleet size (default 4)
	CanaryCount int         // staged cohort size when Gate is on (default 1)
	Gate        bool        // enable the controller's canary gate
	Seed        int64       // rng seed for traffic and model init
	Dur         netsim.Time // bad push at Dur; the run ends at 2×Dur
	Obs         obs.Scope   // telemetry scope; a private registry is used when it has none
	// Flight is the recorder to sample into every aggregation/2 (a private
	// one when nil).
	Flight *obs.FlightRecorder
}

// CanaryScenarioResult is everything the acceptance tests and the experiment
// figure need from one run.
type CanaryScenarioResult struct {
	Stats       fleet.Stats
	Blacklisted []int64   // epochs rejected by the canary verdict
	Canaries    []int     // staged cohort member indices (nil when ungated)
	EpochsSeen  [][]int64 // per member: distinct epochs observed active, in order
	Final       []int64   // member epochs at run end
	Released    int64     // released epoch at run end

	QBefore, QAfter float64 // summed member query rates around the bad push
	PBefore, PAfter float64 // mean member query-latency p99 levels
	Ticks           int64   // flight samples recorded
}

// GoodputRatio is QAfter/QBefore (0 when the pre-push window is empty).
func (r CanaryScenarioResult) GoodputRatio() float64 {
	if r.QBefore <= 0 {
		return 0
	}
	return r.QAfter / r.QBefore
}

// LatencyRatio is PAfter/PBefore (0 when the pre-push window is empty).
func (r CanaryScenarioResult) LatencyRatio() float64 {
	if r.PBefore <= 0 {
		return 0
	}
	return r.PAfter / r.PBefore
}

// RunCanaryScenario runs the bad-push fleet scenario once: a fleet under a
// closed-loop query stream — each member issues its next query only after the
// previous one's modeled kernel inference cost has elapsed, so per-member
// goodput is inversely tied to the active snapshot's MAC count — whose
// slow-path model is swapped at Dur for a bloated 4→2048→1 network (~10240
// MACs ≈ 20µs per inference versus the healthy model's 1µs floor). Ungated,
// the fleet dutifully fans the degraded epoch out to everyone and fleet-wide
// goodput collapses. Gated, the epoch reaches only the canary cohort; the
// controller's verdict reads the same flight recorder the figure does, fails
// the cohort on its goodput collapse, rolls it back, and blacklists the epoch
// — non-canary members never see it.
func RunCanaryScenario(o CanaryScenarioOpts) CanaryScenarioResult {
	const aggDivisor = 40
	if o.Members <= 0 {
		o.Members = 4
	}
	if o.CanaryCount <= 0 {
		o.CanaryCount = 1
	}
	dur := o.Dur
	if dur <= 0 {
		dur = 2 * netsim.Second
	}
	end := 2 * dur
	agg := dur / aggDivisor
	if agg < 200*netsim.Microsecond {
		agg = 200 * netsim.Microsecond
	}

	// The figure reads the flight recording even ungated, so the rig runs a
	// private registry/recorder when the caller's scope has none. Gated, the
	// verdict window is the rig's default 4 aggregation rounds: long enough
	// for the recorder (sampling at agg/2) to hold several points in both the
	// baseline and observation windows, short enough that a bad epoch is
	// caught within a fraction of the run.
	ro := rig.FleetOpts{
		Members: o.Members, Seed: o.Seed, Agg: agg, Dur: dur, End: end,
		ReadsFlight: true,
		Scope:       o.Obs, Flight: o.Flight,
		Stream: rig.Stream{Every: 5 * netsim.Microsecond, ClosedLoop: true, FlowLen: 16},
	}
	if o.Gate {
		ro.CanaryCount = o.CanaryCount
	}
	f := rig.NewFleet(ro)
	eng, ctrl, fr := f.Eng, f.Ctrl, f.Flight

	// The bad push: swap the slow-path model for the bloated network and stop
	// drifting. Ungated, exactly one degraded epoch is minted and the
	// post-install window is steady-state on it; gated, every re-mint of the
	// still-bloated model is caught at the canary stage in turn. Hidden-layer
	// growth is legal for RegisterModel (input/output dims are pinned).
	eng.At(dur, func() {
		f.User.Net = bloat(f.User.Net, 2048, 1.0, o.Seed+7)
		f.User.DriftEvery = 0
	})

	// Epoch-history tick: record each member's active epoch 4× per
	// aggregation round, so the acceptance test can prove a blacklisted epoch
	// was never live on a non-canary member at any sampled instant.
	seen := make([][]int64, len(ctrl.Members()))
	epochTick := func() {
		for i, e := range ctrl.MemberEpochs() {
			if n := len(seen[i]); n == 0 || seen[i][n-1] != e {
				seen[i] = append(seen[i], e)
			}
		}
	}
	epochTick()
	rig.Every(eng, agg/4, end, epochTick)

	eng.RunUntil(end)
	f.Stop()

	// Compare the steady window before the bad push against the window after
	// the rollout (or the gate's block) settles. [dur, 3dur/2] is left out as
	// the transition (build, fan-out, member installs, verdicts).
	before := obs.TimeWindow{From: int64(dur / 2), To: int64(dur)}
	after := obs.TimeWindow{From: int64(3 * dur / 2), To: int64(end)}
	res := CanaryScenarioResult{
		Stats:       ctrl.Stats(),
		Blacklisted: ctrl.Blacklisted(),
		EpochsSeen:  seen,
		Final:       ctrl.MemberEpochs(),
		Released:    ctrl.Released(),
		Ticks:       fr.Ticks(),
	}
	if o.Gate {
		for i := 0; i < o.CanaryCount; i++ {
			res.Canaries = append(res.Canaries, i)
		}
	}
	var pN int
	for _, d := range fr.Delta(before, after) {
		switch {
		case strings.HasPrefix(d.Name, "liteflow_core_queries_total") && d.Cumulative:
			res.QBefore += d.Before
			res.QAfter += d.After
		case strings.HasPrefix(d.Name, "liteflow_query_ns") && strings.HasSuffix(d.Name, "_p99"):
			res.PBefore += d.Before
			res.PAfter += d.After
			pN++
		}
	}
	if pN > 0 {
		res.PBefore /= float64(pN)
		res.PAfter /= float64(pN)
	}
	return res
}

// FigFleetCanary (experiment #22, beyond the paper) closes the loop between
// the snapshot distribution plane and the flight recorder twice over: the
// same bad push runs once ungated — the degraded epoch fans out fleet-wide
// and the windowed deltas flag the collapse after the fact — and once with
// the controller's canary gate on, where the verdict reads the same flight
// recorder live, catches the collapse on the one-member cohort, rolls it
// back, and blacklists the epoch. The pair of series is the before/after of
// ROADMAP item 3: observation (PR 6) versus enforcement (this gate).
func FigFleetCanary(cfg Config) Result {
	const members = 4
	res := Result{ID: "fleet-canary", Title: "Canary gate: ungated collapse vs gated auto-rollback on a degraded snapshot",
		XLabel: "window (0=pre-push, 1=post-push)", YLabel: "queries/s | p99 ns"}

	dur := cfg.dur(2 * netsim.Second)

	// Ungated baseline on private telemetry: its only outputs are the window
	// aggregates. The gated run gets the caller's scope and flight recorder,
	// so the exported artifacts show the blocked rollout.
	ungated := RunCanaryScenario(CanaryScenarioOpts{
		Members: members, Seed: cfg.Seed, Dur: dur,
	})
	gated := RunCanaryScenario(CanaryScenarioOpts{
		Members: members, CanaryCount: 1, Gate: true,
		Seed: cfg.Seed, Dur: dur, Obs: cfg.Obs, Flight: cfg.Flight,
	})

	res.Series = append(res.Series,
		Series{Name: "goodput-qps-ungated", X: []float64{0, 1}, Y: []float64{ungated.QBefore, ungated.QAfter}},
		Series{Name: "goodput-qps-gated", X: []float64{0, 1}, Y: []float64{gated.QBefore, gated.QAfter}},
		Series{Name: "query-p99-ns-ungated", X: []float64{0, 1}, Y: []float64{ungated.PBefore, ungated.PAfter}},
		Series{Name: "query-p99-ns-gated", X: []float64{0, 1}, Y: []float64{gated.PBefore, gated.PAfter}},
	)

	uVerdict := "no regression"
	if ungated.GoodputRatio() < 0.9 || ungated.LatencyRatio() > 1.5 {
		uVerdict = "REGRESSION: degraded snapshot reached the whole fleet"
	}
	gVerdict := "REGRESSION: gate failed to protect the fleet"
	if gated.GoodputRatio() >= 0.7 && gated.Stats.CanaryFails >= 1 {
		gVerdict = "BLOCKED: canary gate caught the degraded epoch"
	}
	us, gs := ungated.Stats, gated.Stats
	res.Notes = append(res.Notes,
		fmt.Sprintf("ungated: goodput ratio %.3f, p99 ratio %.2f — %s", ungated.GoodputRatio(), ungated.LatencyRatio(), uVerdict),
		fmt.Sprintf("gated:   goodput ratio %.3f, p99 ratio %.2f — %s", gated.GoodputRatio(), gated.LatencyRatio(), gVerdict),
		fmt.Sprintf("ungated fleet: %d epochs, %d member installs (%d parked, %d abandoned)",
			us.Epoch, us.MemberInstalls, us.InstallsParked, us.InstallsAbandoned),
		fmt.Sprintf("gated fleet: released epoch %d, %d canary passes, %d fails, %d rollbacks, blacklisted %v",
			gs.ReleasedEpoch, gs.CanaryPasses, gs.CanaryFails, gs.Rollbacks, gated.Blacklisted),
		fmt.Sprintf("flight: %d samples (gated run); verdict windows = 4 aggregation rounds", gated.Ticks),
	)
	return res
}
