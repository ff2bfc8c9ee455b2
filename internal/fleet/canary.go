// Canary gating for staged fleet rollouts (DESIGN.md §4i). The cohort is the
// deterministic prefix of non-pinned members (lowest indices, §4d); the
// verdict compares each canary's flight-recorder series over the observation
// window against the same-length window that ended at the mint instant. A
// pass releases the remaining members; a fail blacklists the epoch and rolls
// the canaries back to the retained previous version.
package fleet

import (
	"strconv"
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
	if k >= len(eligible) {
		return nil
	}
	return eligible[:k]
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

// memberHealth evaluates one canary against the verdict criteria and returns
// "ok" or the criterion that failed. Each criterion is a selector over deltas —
// the flight recorder's per-series comparison of the baseline and observation
// windows, computed once per verdict: goodput is the query rate, latency the
// p99 estimate, degraded the watchdog's count. Criteria with no data in both
// windows (N == 0, e.g. a nil recorder or a sampling period longer than the
// window) are inconclusive and skipped — the gate fails closed only on
// evidence, never on blindness.
func (c *Controller) memberHealth(m *Member, deltas []obs.SeriesDelta) string {
	match := memberSeriesMatcher(m)
	goodput := obs.CompareDeltas(deltas, obs.AggSum, func(d obs.SeriesDelta) bool {
		return d.Cumulative && strings.HasPrefix(d.Name, "liteflow_core_queries_total") && match(d.Name)
	})
	latency := obs.CompareDeltas(deltas, obs.AggMean, func(d obs.SeriesDelta) bool {
		return !d.Cumulative && strings.HasPrefix(d.Name, "liteflow_query_ns") && strings.HasSuffix(d.Name, "_p99") && match(d.Name)
	})
	degraded := obs.CompareDeltas(deltas, obs.AggSum, func(d obs.SeriesDelta) bool {
		return d.Cumulative && strings.HasPrefix(d.Name, "liteflow_core_degraded_total") && match(d.Name)
	})
	switch {
	case goodput.N > 0 && goodput.Before > 0 && goodput.After/goodput.Before < canaryMinGoodputRatio:
		return "goodput"
	case latency.N > 0 && latency.Before > 0 && latency.After/latency.Before > canaryMaxLatencyRatio:
		return "latency"
	case degraded.N > 0 && degraded.After > degraded.Before:
		return "degraded"
	}
	return "ok"
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
	before := obs.TimeWindow{From: max(0, int64(c.segStart)-win), To: int64(c.segStart)}
	after := obs.TimeWindow{From: int64(c.obsStart), To: int64(now)}
	pass, reason, activated := true, "", 0
	var deltas []obs.SeriesDelta
	for _, m := range c.canaries {
		if m.epoch != epoch {
			continue // parked or never activated: no evidence from this one
		}
		if activated++; activated == 1 {
			deltas = c.cfg.Flight.Delta(before, after)
		}
		health := c.memberHealth(m, deltas)
		c.sc.EventMix("fleet", "canary_health", now,
			"member", int64(m.Index), "healthy", strconv.FormatBool(health == "ok"))
		c.wave.MarkMember("canary_health_"+health, int64(m.Index), now)
		if health != "ok" && pass {
			pass, reason = false, health
		}
	}
	if activated == 0 {
		pass, reason = false, "no_canary_activated"
	}
	c.wave.Child("canary_observe", c.obsStart, now-c.obsStart)
	if pass {
		c.releaseWave(now)
	} else {
		c.rollbackWave(now, reason)
	}
}

// releaseWave promotes the observed epoch to the released version and fans
// it out to the remaining members. Members already at (or parked at) the
// epoch, pinned members, and members with an install in flight are skipped.
func (c *Controller) releaseWave(now netsim.Time) {
	c.st.CanaryPasses++
	c.sc.Event2("fleet", "canary_pass", now, "epoch", c.cur.epoch, "canaries", int64(len(c.canaries)))
	c.wave.Mark("canary_pass", now, "epoch", c.cur.epoch)
	c.release(now)
	jobs := make([]installJob, 0, len(c.members))
	for _, m := range c.members {
		if m.pinned || m.epoch >= c.cur.epoch || m.parkedEpoch == c.cur.epoch || m.installing {
			continue
		}
		jobs = append(jobs, installJob{m: m, version: c.cur})
	}
	c.enter(phaseRelease, now, jobs)
}

// rollbackWave blacklists the failed epoch and restores every canary that
// activated it to the retained released version. Parked copies of the bad
// epoch are discarded so catch-up cannot resurrect it.
func (c *Controller) rollbackWave(now netsim.Time, reason string) {
	bad := c.cur.epoch
	c.st.CanaryFails++
	c.blacklist = append(c.blacklist, bad)
	c.sc.EventMix("fleet", "canary_fail", now, "epoch", bad, "reason", reason)
	c.wave.Mark("canary_fail", now, "epoch", bad)
	c.cur = c.rel
	jobs := make([]installJob, 0, len(c.canaries))
	for _, m := range c.canaries {
		if m.parkedEpoch == bad {
			m.parkedEpoch = 0
		}
		if m.epoch == bad {
			jobs = append(jobs, installJob{m: m, version: c.rel, rollback: true})
		}
	}
	c.enter(phaseRollback, now, jobs)
}
