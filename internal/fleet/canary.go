// Canary gating for staged fleet rollouts (DESIGN.md §4i). The cohort is the
// deterministic prefix of non-pinned members (lowest indices, §4d); the
// verdict compares each canary's flight-recorder series over the observation
// window against the same-length window that ended at the mint instant. A
// pass releases the remaining members; a fail blacklists the epoch and rolls
// the canaries back to the retained previous version.
package fleet

import (
	"math"
	"strings"

	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
)

// canaryCohort returns the members a freshly minted epoch stages to, or nil
// for an unstaged fan-out. The cohort is the first k non-pinned members in
// index order — deterministic across runs (§4d). Staging degenerates to a
// full fan-out when the cohort would cover every eligible member: observing
// the whole fleet protects nobody.
func (c *Controller) canaryCohort() []*Member {
	if !c.cfg.staged() {
		return nil
	}
	eligible := make([]*Member, 0, len(c.members))
	for _, m := range c.members {
		if !m.pinned {
			eligible = append(eligible, m)
		}
	}
	k := c.cfg.CanaryCount
	if k <= 0 {
		k = int(math.Ceil(c.cfg.CanaryFraction * float64(len(eligible))))
	}
	if k <= 0 || k >= len(eligible) {
		return nil
	}
	return eligible[:k]
}

// canaryHealth is one canary's verdict input: goodput (query rate), latency
// (p99 estimate), and degradation deltas between the pre-install baseline
// window and the observation window.
type canaryHealth struct {
	member   int
	goodput  obs.DeltaStat
	latency  obs.DeltaStat
	degraded obs.DeltaStat
	healthy  bool
	reason   string
}

// memberSeriesMatcher returns a predicate selecting flight-recorder series
// that belong to m's core scope: every base label of the scope must appear
// in the series' exposition name as a `k="v"` fragment (the closing quote
// keeps host="1" from matching host="10"). A scope with no labels cannot be
// told apart from the rest of the fleet, so it matches every series — the
// verdict then reads fleet-wide aggregates, which still catches a bad epoch,
// just without per-member attribution.
func memberSeriesMatcher(m *Member) func(string) bool {
	labels := m.Core.Obs().Labels()
	if len(labels) == 0 {
		return func(string) bool { return true }
	}
	frags := make([]string, len(labels))
	for i, l := range labels {
		frags[i] = l.Key + `="` + l.Value + `"`
	}
	return func(name string) bool {
		for _, f := range frags {
			if !strings.Contains(name, f) {
				return false
			}
		}
		return true
	}
}

// memberHealth evaluates one canary against the verdict criteria, each a
// selector over deltas — the flight recorder's per-series comparison of the
// baseline and observation windows, computed once per verdict. Criteria with
// no data in both windows (N == 0, e.g. a nil recorder or a sampling period
// longer than the window) are inconclusive and skipped — the gate fails
// closed only on evidence, never on blindness.
func (c *Controller) memberHealth(m *Member, deltas []obs.SeriesDelta) canaryHealth {
	match := memberSeriesMatcher(m)
	h := canaryHealth{member: m.Index, healthy: true}
	h.goodput = obs.CompareDeltas(deltas, obs.AggSum, func(d obs.SeriesDelta) bool {
		return d.Cumulative && strings.HasPrefix(d.Name, "liteflow_core_queries_total") && match(d.Name)
	})
	h.latency = obs.CompareDeltas(deltas, obs.AggMean, func(d obs.SeriesDelta) bool {
		return !d.Cumulative && strings.HasPrefix(d.Name, "liteflow_query_ns") && strings.HasSuffix(d.Name, "_p99") && match(d.Name)
	})
	h.degraded = obs.CompareDeltas(deltas, obs.AggSum, func(d obs.SeriesDelta) bool {
		return d.Cumulative && strings.HasPrefix(d.Name, "liteflow_core_degraded_total") && match(d.Name)
	})
	switch {
	case h.goodput.N > 0 && h.goodput.Before > 0 && h.goodput.After/h.goodput.Before < c.cfg.CanaryMinGoodputRatio:
		h.healthy, h.reason = false, "goodput"
	case h.latency.N > 0 && h.latency.Before > 0 && h.latency.After/h.latency.Before > c.cfg.CanaryMaxLatencyRatio:
		h.healthy, h.reason = false, "latency"
	case h.degraded.N > 0 && h.degraded.After > h.degraded.Before:
		h.healthy, h.reason = false, "degraded"
	}
	return h
}

// canaryVerdict fires CanaryWindow after the cohort's installs drained. It
// compares each activated canary's observation window against the baseline
// window ending at the canary fan-out instant and either releases the epoch
// to the rest of the fleet or rolls the cohort back. A verdict with zero
// activated canaries (all parked mid-install) learned nothing about the new
// version and fails conservatively.
func (c *Controller) canaryVerdict(epoch int64) {
	if !c.running || c.phase != phaseObserve || c.cur.epoch != epoch {
		return
	}
	now := c.eng.Now()
	win := int64(c.cfg.CanaryWindow)
	before := obs.TimeWindow{From: int64(c.segStart) - win, To: int64(c.segStart)}
	after := obs.TimeWindow{From: int64(c.obsStart), To: int64(now)}
	if before.From < 0 {
		before.From = 0
	}
	pass, reason, activated := true, "", 0
	var deltas []obs.SeriesDelta
	for _, m := range c.canaries {
		if m.epoch != epoch {
			continue // parked or never activated: no evidence from this one
		}
		if activated++; activated == 1 {
			deltas = c.cfg.Flight.Delta(before, after)
		}
		h := c.memberHealth(m, deltas)
		c.sc.EventMix("fleet", "canary_health", now,
			"member", int64(m.Index), "healthy", boolStr(h.healthy))
		if c.wave != nil {
			c.wave.MarkMember("canary_health_"+healthStr(h), int64(m.Index), now)
		}
		if !h.healthy && pass {
			pass, reason = false, h.reason
		}
	}
	if activated == 0 {
		pass, reason = false, "no_canary_activated"
	}
	if c.wave != nil {
		c.wave.Child("canary_observe", c.obsStart, now-c.obsStart)
	}
	if pass {
		c.releaseWave(now)
	} else {
		c.rollbackWave(now, reason)
	}
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

func healthStr(h canaryHealth) string {
	if h.healthy {
		return "ok"
	}
	return h.reason
}

// releaseWave promotes the observed epoch to the released version and fans
// it out to the remaining members. Members already at (or parked at) the
// epoch, pinned members, and members with an install in flight are skipped.
func (c *Controller) releaseWave(now netsim.Time) {
	c.met.canaryPass.Inc()
	c.sc.Event2("fleet", "canary_pass", now, "epoch", c.cur.epoch, "canaries", int64(len(c.canaries)))
	if c.wave != nil {
		c.wave.Mark("canary_pass", now, "epoch", c.cur.epoch)
	}
	c.rel = c.cur
	c.met.releasedEpoch.Set(float64(c.rel.epoch))
	c.phase = phaseRelease
	c.segStart = now
	c.fanStart = now
	for _, m := range c.members {
		if m.pinned || m.epoch >= c.cur.epoch || m.parkedEpoch == c.cur.epoch || m.installing || c.queuedFor(m) {
			continue
		}
		c.enqueue(installJob{m: m, mod: c.cur.mod, prog: c.cur.prog, epoch: c.cur.epoch})
	}
	c.updateStale()
	c.onDrained() // nothing to release (e.g. cohort was everyone unpinned): close now
}

// rollbackWave blacklists the failed epoch and restores every canary that
// activated it to the retained released version. Parked copies of the bad
// epoch are discarded so catch-up cannot resurrect it.
func (c *Controller) rollbackWave(now netsim.Time, reason string) {
	bad := c.cur.epoch
	c.met.canaryFail.Inc()
	c.blacklist = append(c.blacklist, bad)
	c.sc.EventMix("fleet", "canary_fail", now, "epoch", bad, "reason", reason)
	if c.wave != nil {
		c.wave.Mark("canary_fail", now, "epoch", bad)
	}
	c.cur = c.rel
	c.phase = phaseRollback
	c.segStart = now
	for _, m := range c.canaries {
		if m.parkedEpoch == bad {
			m.parkedEpoch = 0
		}
		if m.epoch != bad {
			continue
		}
		c.enqueue(installJob{m: m, mod: c.rel.mod, prog: c.rel.prog, epoch: c.rel.epoch, rollback: true})
	}
	c.updateStale()
	c.onDrained() // no canary activated the bad epoch: nothing to roll back
}
