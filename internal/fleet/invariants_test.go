package fleet

import (
	"slices"
	"strconv"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
)

// TestRolloutInvariants steps a chaos fleet one aggregation interval at a
// time and checks, after every step, what the rollout table is supposed to
// guarantee about epochs, the install queue and the phase (ROADMAP item 4a).
// Odd members go dark on a jittered schedule and every core has a watchdog, so
// installs park and catch up; the model drifts every six rounds; member 0 is
// pinned for the middle of the run, which makes the faulty member 1 the
// canary; a member joins late; and for twenty rounds member 0 itself looks
// degraded to the verdict. The staged rig walks the canary,
// release and rollback rows of the table, the unstaged one the fan-out row —
// the test fails if a row's span child never shows up in the trace.
func TestRolloutInvariants(t *testing.T) {
	for _, tc := range []struct {
		name   string
		staged bool
		rows   []string
	}{
		{"staged", true, []string{"canary_install_wave", "release_wave", "rollback_wave"}},
		{"unstaged", false, []string{"install_wave"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const agg = 10 * netsim.Millisecond
			const end = 1200 * netsim.Millisecond
			reg, tr := obs.NewRegistry(), obs.NewTracer(1<<18)
			sc := obs.New(reg, tr)
			fr := obs.NewFlightRecorder(0)
			cfg := Config{BatchInterval: agg, AggregationInterval: agg, MaxConcurrentInstalls: 2}
			if tc.staged {
				cfg.CanaryCount, cfg.CanaryWindow, cfg.Flight = 1, 8*agg, fr
			}
			r := newFleetRig(t, 4, cfg, func(i int) (coreOpts, memberOpts []opt.Option) {
				coreOpts = []opt.Option{
					opt.WithScope(sc.With(obs.Label{Key: "host", Value: strconv.Itoa(i)})),
					opt.WithWatchdog(opt.Watchdog{Window: int64(3 * agg)}),
				}
				if i%2 == 1 {
					memberOpts = []opt.Option{opt.WithFaults(fault.New(fault.Profile{
						OutagePeriod: int64(15 * agg), OutageDuration: int64(6 * agg),
					}, int64(7+i), sc))}
				}
				return coreOpts, memberOpts
			}, opt.WithScope(sc))
			defer r.ctrl.Stop()
			c := r.ctrl

			r.feedAll(agg, end)
			sign := 0.5
			for at := 6 * agg; at < end-20*agg; at += 6 * agg {
				r.eng.At(at, func() { r.user.net.Layers[1].B[0] += sign; sign = -sign })
			}
			m0 := c.Members()[0]
			r.eng.At(30*agg, func() {
				if err := m0.Pin(m0.Epoch()); err != nil {
					t.Error(err)
				}
			})
			r.eng.At(70*agg, m0.Unpin)
			r.eng.At(50*agg, func() { r.addLateMember(t) })
			// A bad stretch for the healthy canary: a degradation series
			// beside member 0's own (same family, same host label, which the
			// verdict sums) climbs for twenty rounds, so its verdicts fail on
			// evidence and the rollback jobs land on a core that can take them.
			bad := sc.With(obs.Label{Key: "host", Value: "0"}).Counter("liteflow_core_degraded_total", "",
				obs.Label{Key: "src", Value: "test"})
			for at := 80 * agg; at < 100*agg; at += agg / 2 {
				r.eng.At(at, func() { bad.Add(int64(r.eng.Now() / agg)) })
			}

			prev := c.MemberEpochs()
			cohorts := map[int64][]*Member{} // staged epoch → its cohort
			var rollbacks int64
			wentBack := 0
			for r.eng.Now() < end {
				r.eng.RunUntil(r.eng.Now() + agg)
				fr.Sample(reg, int64(r.eng.Now()))
				st, black := c.Stats(), c.Blacklisted()

				if !(c.Released() <= c.Epoch() && c.Epoch() <= c.lastMinted) {
					t.Fatalf("t=%d: released %d ≤ minted-and-live %d ≤ last minted %d does not hold",
						r.eng.Now(), c.Released(), c.Epoch(), c.lastMinted)
				}
				if slices.Contains(black, c.Released()) || slices.Contains(black, c.Epoch()) {
					t.Fatalf("t=%d: released %d or current %d epoch is blacklisted %v",
						r.eng.Now(), c.Released(), c.Epoch(), black)
				}
				if c.canaries != nil {
					cohorts[c.lastMinted] = c.canaries
				}
				busy := 0
				for i, m := range c.Members() {
					if m.installing {
						busy++
					}
					if i < len(prev) && m.Epoch() < prev[i] {
						wentBack++
						// Only a rollback job moves a member back: off an epoch
						// the verdict just blacklisted, onto the released one.
						if !slices.Contains(black, prev[i]) || m.Epoch() != c.Released() || st.Rollbacks == rollbacks {
							t.Fatalf("t=%d: member %d went from epoch %d back to %d without a rollback (released %d, blacklist %v)",
								r.eng.Now(), i, prev[i], m.Epoch(), c.Released(), black)
						}
					}
					if slices.Contains(black, m.Epoch()) && !slices.Contains(cohorts[m.Epoch()], m) {
						t.Fatalf("t=%d: member %d runs blacklisted epoch %d outside its cohort", r.eng.Now(), i, m.Epoch())
					}
				}
				prev, rollbacks = c.MemberEpochs(), st.Rollbacks

				if c.inFlight > cfg.MaxConcurrentInstalls {
					t.Fatalf("t=%d: %d installs in flight, bound %d", r.eng.Now(), c.inFlight, cfg.MaxConcurrentInstalls)
				}
				if busy != c.inFlight+len(c.queue) {
					t.Fatalf("t=%d: %d members marked installing, %d in flight + %d queued",
						r.eng.Now(), busy, c.inFlight, len(c.queue))
				}
				if got := int(reg.Value("liteflow_fleet_stale_members")); got != c.StaleMembers() {
					t.Fatalf("t=%d: stale gauge %d, recount %d", r.eng.Now(), got, c.StaleMembers())
				}
				// The phase against the rest of the state. Idle is not "no span
				// and an empty queue": the next wave's span opens at the first
				// pooled round, before anything is minted, and catch-up installs
				// queue in any phase. What holds is the other direction.
				switch c.phase {
				case phaseIdle, phaseFanOut:
					if c.canaries != nil {
						t.Fatalf("t=%d: phase %d holds a canary cohort", r.eng.Now(), c.phase)
					}
				default:
					if c.canaries == nil {
						t.Fatalf("t=%d: staged phase %d without a cohort", r.eng.Now(), c.phase)
					}
				}
				if c.phase != phaseIdle && c.wave == nil {
					t.Fatalf("t=%d: phase %d without a rollout span", r.eng.Now(), c.phase)
				}
				if burst := rollout[c.phase].child != ""; burst && c.inFlight+len(c.queue) == 0 {
					t.Fatalf("t=%d: burst phase %d has drained but did not advance", r.eng.Now(), c.phase)
				}
			}

			st := c.Stats()
			if st.InstallsParked == 0 || st.OutageDrops == 0 || st.VersionsBuilt < 4 {
				t.Errorf("the run exercised too little: %+v", st)
			}
			if tc.staged && (st.CanaryFails == 0 || st.CanaryPasses == 0 || wentBack == 0) {
				t.Errorf("the staged run needs passing and failing verdicts and a rollback seen between two steps (%d): %+v", wentBack, st)
			}
			seen := map[string]bool{}
			for _, e := range tr.Events() {
				seen[e.Name] = true
			}
			for _, child := range tc.rows {
				if !seen[child] {
					t.Errorf("no %s span child: that row of the rollout table was never reached", child)
				}
			}
		})
	}
}
