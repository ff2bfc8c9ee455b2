package fault

import (
	"math"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
)

func TestByName(t *testing.T) {
	for name, want := range map[string]Profile{
		"":         None(),
		"none":     None(),
		"netlink":  Netlink(),
		"slowpath": SlowPath(),
		"chaos":    Chaos(),
	} {
		got, ok := ByName(name)
		if !ok || got != want {
			t.Errorf("ByName(%q) = %+v, %v", name, got, ok)
		}
	}
	if _, ok := ByName("earthquake"); ok {
		t.Error("unknown profile name must be rejected")
	}
	if None().Active() {
		t.Error("the zero profile must be inactive")
	}
	for _, p := range []Profile{Netlink(), SlowPath(), Chaos()} {
		if !p.Active() {
			t.Errorf("%+v must be active", p)
		}
	}
}

// TestNilInjector: a nil *Injector injects nothing and never panics, so
// wiring does not need nil guards.
func TestNilInjector(t *testing.T) {
	var j *Injector
	if j.DropMessage(0) || j.CorruptMessage(0, []float64{1}) {
		t.Error("nil injector must not inject")
	}
	if j.DeliveryDelay(0) != 0 || j.BatchPermutation(0, 8) != nil {
		t.Error("nil injector must not delay or reorder")
	}
	if _, fail := j.FailSnapshot(0); fail {
		t.Error("nil injector must not fail snapshots")
	}
	if j.ServiceDown(0) {
		t.Error("nil injector must not take the service down")
	}
	j.StartCPUSpikes(nil, nil) // must not dereference eng
	j.StopCPUSpikes()
	if j.Stats().Total() != 0 {
		t.Error("nil injector must report zero state")
	}
}

// TestDeterminism: two same-seed injectors make identical decision
// sequences; a different seed diverges.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) (drops []bool, delays []int64, perms [][]int, outages []bool) {
		j := New(Chaos(), seed, obs.Scope{})
		now := int64(0)
		for i := 0; i < 200; i++ {
			now += 10 * millisecond
			drops = append(drops, j.DropMessage(now))
			delays = append(delays, j.DeliveryDelay(now))
			perms = append(perms, j.BatchPermutation(now, 5))
			outages = append(outages, j.ServiceDown(now))
		}
		return
	}
	d1, l1, p1, o1 := run(42)
	d2, l2, p2, o2 := run(42)
	for i := range d1 {
		if d1[i] != d2[i] || l1[i] != l2[i] || o1[i] != o2[i] {
			t.Fatalf("same-seed decision %d diverged", i)
		}
		if len(p1[i]) != len(p2[i]) {
			t.Fatalf("same-seed permutation %d diverged", i)
		}
		for k := range p1[i] {
			if p1[i][k] != p2[i][k] {
				t.Fatalf("same-seed permutation %d diverged at %d", i, k)
			}
		}
	}
	d3, l3, _, o3 := run(43)
	same := true
	for i := range d1 {
		if d1[i] != d3[i] || l1[i] != l3[i] || o1[i] != o3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds must diverge")
	}
}

// TestProbabilityExtremes: p=1 always fires, p=0 never does, and the
// per-kind counters track exactly.
func TestProbabilityExtremes(t *testing.T) {
	always := New(Profile{MsgDropP: 1, MsgCorruptP: 1, BatchDelayP: 1,
		BatchDelayMax: millisecond, BatchReorderP: 1, BuildFailP: 1}, 1, obs.Scope{})
	for i := int64(0); i < 10; i++ {
		if !always.DropMessage(i) {
			t.Fatal("MsgDropP=1 must always drop")
		}
		data := []float64{3, 1, 2, 3}
		if !always.CorruptMessage(i, data) {
			t.Fatal("MsgCorruptP=1 must always corrupt")
		}
		valid := data[0] == 3 && !math.IsNaN(data[1]) && !math.IsNaN(data[2]) && !math.IsNaN(data[3])
		if valid {
			t.Fatalf("corruption left a valid payload: %v", data)
		}
		if always.DeliveryDelay(i) <= 0 {
			t.Fatal("BatchDelayP=1 must always delay")
		}
		if always.BatchPermutation(i, 4) == nil {
			t.Fatal("BatchReorderP=1 must always reorder")
		}
		if reason, fail := always.FailSnapshot(i); !fail || reason != "build" {
			t.Fatalf("BuildFailP=1 must always fail with build, got %q %v", reason, fail)
		}
	}
	st := always.Stats()
	if st.Drops != 10 || st.Corrupts != 10 || st.Delays != 10 || st.Reorders != 10 || st.BuildFails != 10 {
		t.Errorf("counters must track every injection: %+v", st)
	}

	never := New(Profile{OutagePeriod: second, OutageDuration: millisecond}, 1, obs.Scope{})
	for i := int64(0); i < 100; i++ {
		if never.DropMessage(i) || never.DeliveryDelay(i) != 0 || never.BatchPermutation(i, 4) != nil {
			t.Fatal("zero-probability faults must never fire")
		}
		if _, fail := never.FailSnapshot(i); fail {
			t.Fatal("zero-probability snapshot failure fired")
		}
	}
}

// TestOutageWindows: outages appear with jittered gaps in [P/2, 3P/2), last
// OutageDuration, and each window is counted once.
func TestOutageWindows(t *testing.T) {
	p := Profile{OutagePeriod: second, OutageDuration: 100 * millisecond}
	j := New(p, 9, obs.Scope{})
	var downNs, transitions int64
	wasDown := false
	step := millisecond
	horizon := 20 * second
	for now := int64(0); now < horizon; now += step {
		down := j.ServiceDown(now)
		if down {
			downNs += step
		}
		if down && !wasDown {
			transitions++
		}
		wasDown = down
	}
	st := j.Stats()
	if st.Outages == 0 {
		t.Fatal("no outages over 20 virtual seconds")
	}
	if st.Outages != transitions {
		t.Errorf("outage counter %d != observed windows %d", st.Outages, transitions)
	}
	// Gaps are jittered in [P/2, 3P/2) plus the 100 ms window, so the count
	// over 20 s must land between ~12 and ~20 windows.
	if st.Outages < 8 || st.Outages > 25 {
		t.Errorf("outage count %d implausible for P=1s over 20s", st.Outages)
	}
	// Total downtime ≈ windows × duration (sampling quantizes by one step).
	wantDown := st.Outages * p.OutageDuration
	if downNs < wantDown-st.Outages*step || downNs > wantDown+st.Outages*step {
		t.Errorf("downtime %dns, want ≈ %dns", downNs, wantDown)
	}
}

func TestCPUSpikes(t *testing.T) {
	p := Profile{SpikePeriod: 100 * millisecond, SpikeWork: millisecond}
	j := New(p, 5, obs.Scope{})
	eng := netsim.NewEngine()
	var charged int64
	j.StartCPUSpikes(eng, func(work int64) { charged += work })
	j.StartCPUSpikes(eng, func(work int64) { charged += work }) // idempotent
	eng.RunUntil(2 * second)
	st := j.Stats()
	if st.Spikes == 0 {
		t.Fatal("no spikes over 2 virtual seconds")
	}
	// Jittered gaps in [P/2, 3P/2) → roughly 2s/0.1s = 20 spikes, wide band.
	if st.Spikes < 10 || st.Spikes > 40 {
		t.Errorf("spike count %d implausible for P=100ms over 2s", st.Spikes)
	}
	if charged != st.Spikes*p.SpikeWork {
		t.Errorf("charged %d, want %d (double StartCPUSpikes must not double-charge)",
			charged, st.Spikes*p.SpikeWork)
	}
	j.StopCPUSpikes()
	before := st.Spikes
	eng.RunUntil(4 * second)
	if j.Stats().Spikes != before {
		t.Error("spikes must stop after StopCPUSpikes")
	}
}
