package core

import (
	"math/rand"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// newCacheCore returns a core with the sweeper enabled at the given timeout,
// one registered model, and no CPU accounting.
func newCacheCore(t testing.TB, timeout netsim.Time) (*netsim.Engine, *Core) {
	t.Helper()
	eng := netsim.NewEngine()
	cfg := DefaultConfig()
	cfg.FlowCacheTimeout = timeout
	c := NewCore(eng, nil, ksim.DefaultCosts(), cfg)
	if _, err := c.RegisterModel(buildModule(t, smallNet(1), "m0")); err != nil {
		t.Fatal(err)
	}
	return eng, c
}

// TestSweepEvictionBoundary pins the <= boundary fix: an entry idle for
// exactly FlowCacheTimeout is evicted by the tick at its deadline, not one
// full timeout later.
func TestSweepEvictionBoundary(t *testing.T) {
	timeout := 64 * netsim.Millisecond // tick = 1ms exactly
	eng, c := newCacheCore(t, timeout)
	in := make([]int64, 4)
	out := make([]int64, 1)
	if err := c.QueryModel(7, in, out); err != nil {
		t.Fatal(err)
	}
	// One tick past the deadline the entry must be gone; the old `<` cutoff
	// kept an exactly-timeout-idle entry until the next full sweep period.
	eng.RunUntil(timeout + 2*c.fc.tick)
	if c.CachedFlows() != 0 {
		t.Errorf("entry idle for exactly the timeout still cached at deadline+2 ticks")
	}
	if st := c.Stats(); st.SweptEntries != 1 {
		t.Errorf("SweptEntries = %d, want 1", st.SweptEntries)
	}
}

// TestSweeperIdleDisarm pins the idle-rescheduling fix: a core whose cache
// was never populated schedules no sweep events at all, and once the cache
// drains the tick chain stops. Re-inserting re-arms it.
func TestSweeperIdleDisarm(t *testing.T) {
	timeout := 10 * netsim.Millisecond
	eng, c := newCacheCore(t, timeout)

	// Never populated: no sweep event may be scheduled at all.
	if eng.Pending() != 0 {
		t.Fatalf("empty cache scheduled %d sweep events", eng.Pending())
	}
	eng.RunUntil(netsim.Second)
	if c.sweepArmed {
		t.Fatal("sweeper armed with an empty cache")
	}

	// Insert, expire, drain: the sweeper must disarm again.
	in := make([]int64, 4)
	out := make([]int64, 1)
	if err := c.QueryModel(1, in, out); err != nil {
		t.Fatal(err)
	}
	if !c.sweepArmed {
		t.Fatal("first insert must arm the sweeper")
	}
	eng.RunUntil(eng.Now() + 10*timeout)
	if c.CachedFlows() != 0 {
		t.Fatalf("entry not swept, CachedFlows = %d", c.CachedFlows())
	}
	if c.sweepArmed {
		t.Error("sweeper must disarm once the wheel drains")
	}
	if eng.Pending() != 0 {
		t.Errorf("disarmed sweeper left %d events scheduled", eng.Pending())
	}

	// Re-arm on the next insert and sweep again.
	if err := c.QueryModel(2, in, out); err != nil {
		t.Fatal(err)
	}
	if !c.sweepArmed {
		t.Fatal("insert after disarm must re-arm the sweeper")
	}
	eng.RunUntil(eng.Now() + 10*timeout)
	if st := c.Stats(); st.SweptEntries != 2 {
		t.Errorf("SweptEntries = %d, want 2", st.SweptEntries)
	}
}

// TestSweepRenewalKeepsHotFlows: a flow queried more often than the timeout
// must survive sweeps indefinitely (lazy renewal re-parks it).
func TestSweepRenewalKeepsHotFlows(t *testing.T) {
	timeout := 10 * netsim.Millisecond
	eng, c := newCacheCore(t, timeout)
	in := make([]int64, 4)
	out := make([]int64, 1)
	step := timeout / 3
	for i := 0; i < 100; i++ {
		if err := c.QueryModel(1, in, out); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(eng.Now() + step)
	}
	if c.CachedFlows() != 1 {
		t.Errorf("hot flow evicted: CachedFlows = %d", c.CachedFlows())
	}
	st := c.Stats()
	if st.SweptEntries != 0 {
		t.Errorf("SweptEntries = %d, want 0", st.SweptEntries)
	}
	if st.SweepScans == 0 {
		t.Error("renewal must show up as sweep scan work")
	}
	// Now go idle: the hot flow expires like any other.
	eng.RunUntil(eng.Now() + 10*timeout)
	if c.CachedFlows() != 0 {
		t.Error("idle flow must expire after its last renewal")
	}
}

// TestSweepTickScanProportional is the tentpole's scaling acceptance test:
// with ~1M cached flows, no single sweep tick may scan anything close to the
// full cache — per-tick work is bounded by the entries expiring around that
// tick, which liteflow_core_sweep_scan_total / MaxSweepTickScan make
// observable. (The old implementation walked and sorted all N entries every
// sweep period.)
func TestSweepTickScanProportional(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 200_000
	}
	timeout := 100 * netsim.Millisecond
	eng, c := newCacheCore(t, timeout)
	in := make([]int64, 4)
	out := make([]int64, 1)

	// Insert n flows spread across one timeout period so deadlines land in
	// many different wheel buckets, interleaving inserts with engine time
	// (sweep ticks run while the cache fills).
	const chunks = 200
	per := n / chunks
	step := timeout / chunks
	for i := 0; i < chunks; i++ {
		for f := i*per + 1; f <= (i+1)*per; f++ {
			if err := c.QueryModel(netsim.FlowID(f), in, out); err != nil {
				t.Fatal(err)
			}
		}
		eng.RunUntil(eng.Now() + step)
	}
	peak := c.CachedFlows()
	if peak < n/2 {
		t.Fatalf("expected most of %d flows cached, have %d", n, peak)
	}

	// Let everything expire.
	eng.RunUntil(eng.Now() + 3*timeout)
	st := c.Stats()
	if c.CachedFlows() != 0 {
		t.Fatalf("CachedFlows = %d after 3 timeouts, want 0", c.CachedFlows())
	}
	if st.SweptEntries != int64(n) {
		t.Errorf("SweptEntries = %d, want %d", st.SweptEntries, n)
	}
	maxTick := c.MaxSweepTickScan()
	if maxTick == 0 {
		t.Fatal("sweeper did no work")
	}
	// With deadlines spread over ~sweepWheelSlots buckets, a tick should
	// scan ~n/64; require at least an 8x margin below the full cache to
	// fail loudly if sweeping ever regresses to a full scan.
	if maxTick > int64(peak/8) {
		t.Errorf("one sweep tick scanned %d of %d cached flows — not incremental", maxTick, peak)
	}
	// Total scan work stays linear in insertions (each entry is examined
	// O(1) times: parked once, scanned once, no renewals here).
	if st.SweepScans > 3*int64(n) {
		t.Errorf("SweepScans = %d for %d insertions — too much re-scanning", st.SweepScans, n)
	}
}

// sumRefs returns the total flow-cache reference count over every loaded
// model.
func sumRefs(c *Core) int {
	total := 0
	for _, m := range c.models {
		total += m.Refs()
	}
	return total
}

// modelLoaded reports whether m is still in the NN manager's model list.
func modelLoaded(c *Core, m *Model) bool {
	for _, x := range c.models {
		if x == m {
			return true
		}
	}
	return false
}

// TestFlowCacheRefcountInvariant drives random interleavings of lookups,
// FIN drops, snapshot installs/activations, and sweep ticks, asserting after
// every step that the sum of Model.Refs() equals CachedFlows() and that
// unloadDead never unloaded the active or standby snapshot.
func TestFlowCacheRefcountInvariant(t *testing.T) {
	timeout := 20 * netsim.Millisecond
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := netsim.NewEngine()
		cfg := DefaultConfig()
		cfg.FlowCacheTimeout = timeout
		c := NewCore(eng, nil, ksim.DefaultCosts(), cfg)

		// Seed the NN manager with a few snapshot generations up front.
		for i, name := range []string{"p0", "p1", "p2", "p3"} {
			if _, err := c.RegisterModel(buildModule(t, smallNet(int64(i+1)), name)); err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				if err := c.Activate(); err != nil {
					t.Fatal(err)
				}
			}
		}

		in := make([]int64, 4)
		out := make([]int64, 1)
		check := func(step int) {
			t.Helper()
			if got, want := sumRefs(c), c.CachedFlows(); got != want {
				t.Fatalf("seed %d step %d: sum(Refs) = %d, CachedFlows = %d", seed, step, got, want)
			}
			if c.active != nil && !modelLoaded(c, c.active) {
				t.Fatalf("seed %d step %d: active snapshot was unloaded", seed, step)
			}
			if c.standby != nil && !modelLoaded(c, c.standby) {
				t.Fatalf("seed %d step %d: standby snapshot was unloaded", seed, step)
			}
		}

		installs := 0
		for step := 0; step < 3000; step++ {
			flow := netsim.FlowID(rng.Intn(200) + 1)
			switch op := rng.Intn(10); {
			case op < 5: // lookup (insert or renew)
				if err := c.QueryModel(flow, in, out); err != nil {
					t.Fatal(err)
				}
			case op < 7: // FIN
				c.FlowFinished(flow)
			case op < 9: // advance time; sweep ticks run
				eng.RunUntil(eng.Now() + netsim.Time(rng.Int63n(int64(timeout/2))))
			default: // install + activate a new snapshot
				installs++
				name := "g" + string(rune('a'+installs%26))
				if _, err := c.RegisterModel(buildModule(t, smallNet(int64(installs%7+1)), name)); err != nil {
					t.Fatal(err)
				}
				if err := c.Activate(); err != nil {
					t.Fatal(err)
				}
			}
			check(step)
		}

		// Drain: with no further activity every entry expires, refcounts
		// return to zero, and only active (and a possible standby) survive.
		eng.RunUntil(eng.Now() + 5*timeout)
		if c.CachedFlows() != 0 {
			t.Fatalf("seed %d: %d flows cached after drain", seed, c.CachedFlows())
		}
		if got := sumRefs(c); got != 0 {
			t.Fatalf("seed %d: sum(Refs) = %d after drain, want 0", seed, got)
		}
		if c.Models() > 2 {
			t.Errorf("seed %d: %d models loaded after drain, want <= 2 (active + standby)", seed, c.Models())
		}
		check(-1)
	}
}

// TestBulkDropDeterministicOrder: disabling the cache drops entries in
// ascending flow order regardless of map iteration order — the eviction
// telemetry order the determinism invariant (DESIGN.md §4d) relies on.
func TestBulkDropDeterministicOrder(t *testing.T) {
	_, c := newCacheCore(t, 0)
	in := make([]int64, 4)
	out := make([]int64, 1)
	flows := []netsim.FlowID{99, 3, 1024, 7, 500, 2, 77, 41}
	for _, f := range flows {
		if err := c.QueryModel(f, in, out); err != nil {
			t.Fatal(err)
		}
	}
	got := c.sortedCachedFlows()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("sortedCachedFlows not ascending: %v", got)
		}
	}
	if len(got) != len(flows) {
		t.Fatalf("sortedCachedFlows returned %d flows, want %d", len(got), len(flows))
	}
	c.SetFlowCache(false)
	if c.CachedFlows() != 0 {
		t.Errorf("CachedFlows = %d after disable", c.CachedFlows())
	}
	if c.fc.parked != 0 {
		t.Errorf("wheel still holds %d refs after bulk drop", c.fc.parked)
	}
}
