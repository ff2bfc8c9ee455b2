package core

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
)

// refCache is the flow cache of paper §3.4 with nothing else in it: a plain
// map from flow to the pinned snapshot and its last use, expired by scanning
// every entry. It is the reference TestFlowCacheMatchesReference runs beside
// the product cache (map + timing wheel).
type refCache struct {
	timeout netsim.Time
	entries map[netsim.FlowID]*refEntry
}

type refEntry struct {
	model    *Model
	lastUsed netsim.Time
}

func (r *refCache) deadline(f netsim.FlowID) netsim.Time {
	return r.entries[f].lastUsed + r.timeout
}

// lookup pins active for a new flow or renews an existing one.
func (r *refCache) lookup(f netsim.FlowID, active *Model, now netsim.Time) {
	if e, ok := r.entries[f]; ok {
		e.lastUsed = now
		return
	}
	r.entries[f] = &refEntry{model: active, lastUsed: now}
}

// overdue is the full scan: every flow whose deadline lies more than slack
// before now, ascending.
func (r *refCache) overdue(now, slack netsim.Time) []netsim.FlowID {
	var out []netsim.FlowID
	for f := range r.entries {
		if r.deadline(f)+slack < now {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refCache) refs() map[*Model]int {
	n := make(map[*Model]int)
	for _, e := range r.entries {
		n[e.model]++
	}
	return n
}

// TestFlowCacheMatchesReference executes the product cache and refCache side
// by side over random lookups, FINs, installs/activations and time advances.
// After every step both hold the same flows and every loaded model's Refs
// equals the reference's count. Eviction instants come from the core's
// flowcache/evict trace events: each idle eviction must land no earlier than
// the flow's deadline (last use + timeout) and less than two wheel ticks
// after it (FlowCacheTimeout's documented bound: the deadline rounds up to a
// slot boundary, and the sweeper's ticks keep the phase of the moment it was
// armed, so one tick is not enough — seed 0 at 20 ms sees 1.38 ticks), and the
// reference's full scan must find no flow past that bound still cached.
func TestFlowCacheMatchesReference(t *testing.T) {
	for _, timeout := range []netsim.Time{20 * netsim.Millisecond, 64 * netsim.Millisecond, 1000} {
		for seed := int64(0); seed < 4; seed++ {
			checkFlowCacheAgainstReference(t, timeout, seed)
		}
	}
}

func checkFlowCacheAgainstReference(t *testing.T, timeout netsim.Time, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := netsim.NewEngine()
	tr := obs.NewTracer(1 << 20)
	cfg := DefaultConfig()
	cfg.FlowCacheTimeout = timeout
	c := NewCore(eng, nil, ksim.DefaultCosts(), cfg, opt.WithScope(obs.New(nil, tr)))
	tick := c.fc.tick
	var mods []*Model
	for i := 0; i < 4; i++ {
		m, err := c.RegisterModel(buildModule(t, smallNet(int64(i+1)), "p"+string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	ref := &refCache{timeout: timeout, entries: make(map[netsim.FlowID]*refEntry)}
	in := make([]int64, 4)
	out := make([]int64, 1)

	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("timeout %d seed %d step %d: "+format, append([]any{timeout, seed, step}, args...)...)
	}
	// sweepEvictions applies the evictions the sweeper made since the last
	// call, checking each against the reference's deadline.
	sweepEvictions := func(step int) {
		t.Helper()
		for _, e := range tr.Events() {
			if e.Cat != "flowcache" || e.Name != "evict" {
				continue
			}
			f := netsim.FlowID(e.Args[0].Val)
			if _, ok := ref.entries[f]; !ok {
				fail(step, "flow %d evicted but not cached in the reference", f)
			}
			d := ref.deadline(f)
			if at := netsim.Time(e.At); at < d || at >= d+2*tick {
				fail(step, "flow %d evicted at %d, deadline %d: want within [deadline, deadline+2×%d)", f, at, d, tick)
			}
			delete(ref.entries, f)
		}
		tr.Reset()
	}
	compare := func(step int) {
		t.Helper()
		if late := ref.overdue(eng.Now(), 2*tick-1); len(late) > 0 {
			fail(step, "flows %v still cached two ticks past their deadline", late)
		}
		got := c.sortedCachedFlows()
		if len(got) != len(ref.entries) || c.CachedFlows() != len(ref.entries) {
			fail(step, "core caches %d flows (%d listed), reference %d", c.CachedFlows(), len(got), len(ref.entries))
		}
		for _, f := range got {
			re, ok := ref.entries[f]
			if !ok {
				fail(step, "flow %d cached by the core only", f)
			}
			if m := c.fc.get(f).model; m != re.model {
				fail(step, "flow %d pinned to %q, reference %q", f, m.Name, re.model.Name)
			}
		}
		want := ref.refs()
		for _, m := range c.models {
			if m.Refs() != want[m] {
				fail(step, "model %q Refs %d, reference %d", m.Name, m.Refs(), want[m])
			}
		}
		for m, n := range want {
			if n > 0 && !modelLoaded(c, m) {
				fail(step, "model %q unloaded with %d reference pins", m.Name, n)
			}
		}
	}

	for step := 0; step < 2000; step++ {
		flow := netsim.FlowID(rng.Intn(150) + 1)
		switch op := rng.Intn(10); {
		case op < 5:
			ref.lookup(flow, c.Active(), eng.Now())
			if err := c.QueryModel(flow, in, out); err != nil {
				t.Fatal(err)
			}
		case op < 7:
			delete(ref.entries, flow)
			c.FlowFinished(flow)
			tr.Reset() // the FIN's own evict event
		case op < 9:
			eng.RunUntil(eng.Now() + netsim.Time(rng.Int63n(int64(timeout/2)+1)))
			sweepEvictions(step)
		default:
			m, err := c.RegisterModel(mods[rng.Intn(len(mods))].Module)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Activate(); err != nil {
				t.Fatal(err)
			}
			mods = append(mods, m)
		}
		compare(step)
	}
	// Drain: every flow goes idle and must be swept within its bound.
	eng.RunUntil(eng.Now() + 2*timeout)
	sweepEvictions(-1)
	compare(-1)
	if len(ref.entries) != 0 {
		t.Fatalf("timeout %d seed %d: %d flows cached after drain", timeout, seed, len(ref.entries))
	}
}
