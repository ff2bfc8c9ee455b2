package rig

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
)

// TestNewFleet: every fabric host is enrolled once, in ascending host order,
// with host="<i>" on its core and channel telemetry; member samples reach the
// controller's pool; every member core's watchdog is armed; and odd members,
// and only they, get a fault injector when OddFaults is active.
func TestNewFleet(t *testing.T) {
	const agg = netsim.Millisecond
	outages := fault.Profile{OutagePeriod: int64(5 * agg), OutageDuration: int64(2 * agg)}
	for _, odd := range []fault.Profile{{}, outages} {
		reg, tr := obs.NewRegistry(), obs.NewTracer(0)
		f := NewFleet(FleetOpts{
			Members: 4, Seed: 3, Agg: agg, Dur: 30 * agg, End: 30 * agg,
			OddFaults: odd, Scope: obs.New(reg, tr),
			Stream: Stream{Every: 100 * netsim.Microsecond},
		})
		members := f.Ctrl.Members()
		if len(members) != 4 {
			t.Fatalf("members = %d, want one per host (4)", len(members))
		}
		for i, m := range members {
			host := []obs.Label{{Key: "host", Value: fmt.Sprint(i)}}
			if m.Index != i || !reflect.DeepEqual(m.Core.Obs().Labels(), host) {
				t.Errorf("member %d: index %d, core labels %v, want host order", i, m.Index, m.Core.Obs().Labels())
			}
			if e := f.Ctrl.MemberEpochs()[i]; m.Core.Models() != 1 || e != 1 {
				t.Errorf("member %d: %d models resident at epoch %d, want the provisioned snapshot at epoch 1", i, m.Core.Models(), e)
			}
		}

		f.Eng.RunUntil(20 * agg)
		if st := f.Ctrl.Stats(); st.Batches == 0 || st.Samples == 0 {
			t.Errorf("controller saw %d batches / %d samples, want member samples in its pool", st.Batches, st.Samples)
		}
		text := string(reg.PrometheusText())
		for i := range members {
			for _, series := range []string{"liteflow_core_queries_total", "liteflow_netlink_flushes_total"} {
				if want := fmt.Sprintf(`%s{host="%d"}`, series, i); !strings.Contains(text, want) {
					t.Errorf("exposition lacks %s", want)
				}
			}
		}
		drops := 0
		for _, e := range tr.Events() {
			if e.Cat == "fleet" && e.Name == "outage_drop" {
				drops++
				if e.Args[0].Key != "member" || e.Args[0].Val%2 == 0 {
					t.Errorf("outage drop on member %d: only odd members get an injector", e.Args[0].Val)
				}
			}
		}
		if hasSeries := strings.Contains(text, "liteflow_fault_injected_total"); hasSeries != odd.Active() || (drops > 0) != odd.Active() {
			t.Errorf("OddFaults active=%v: fault series registered=%v, %d outage drops", odd.Active(), hasSeries, drops)
		}

		// Silence every channel: one watchdog window (4 batch intervals) and
		// a check period later, each core that had one armed has degraded.
		for i, m := range members {
			if !odd.Active() && m.Core.Degraded() {
				t.Errorf("member %d degraded on a healthy slow path", i)
			}
			m.Chan.StopBatching()
		}
		f.Eng.RunUntil(20*agg + 4*agg + 2*agg + 1)
		for i, m := range members {
			if !m.Core.Degraded() {
				t.Errorf("member %d did not degrade after slow-path silence: watchdog not armed", i)
			}
		}
		f.Stop()
	}
}

// TestEveryBoundary: the first tick is at now+period and the last is the
// first tick at or past end.
func TestEveryBoundary(t *testing.T) {
	for _, c := range []struct {
		start, period, end netsim.Time
		want               []netsim.Time
	}{
		{7, 10, 35, []netsim.Time{17, 27, 37}}, // end between ticks: one tick past it
		{0, 10, 30, []netsim.Time{10, 20, 30}}, // end on a tick: that tick is the last
		{0, 10, 5, []netsim.Time{10}},          // end before the first tick: it still fires
	} {
		eng := netsim.NewEngine()
		var got []netsim.Time
		eng.At(c.start, func() { Every(eng, c.period, c.end, func() { got = append(got, eng.Now()) }) })
		eng.RunUntil(1000)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Every from %d each %d until %d ticked at %v, want %v", c.start, c.period, c.end, got, c.want)
		}
	}
}
