package obs_test

import (
	"testing"

	"github.com/liteflow-sim/liteflow/internal/obs"
)

// The QueryModel fast path bumps two Stats fields, which its scope exports as
// counter views, and (when tracing) emits one event per query. These
// benchmarks guard the acceptance requirement that the no-op scope adds no
// allocations to that path.

// fastPath registers the two views on sc and returns one query's work.
func fastPath(sc obs.Scope) func(i int) {
	st := &struct{ queries, hits int64 }{}
	sc.CounterOf("liteflow_core_queries_total", "", &st.queries)
	sc.CounterOf("liteflow_core_flow_cache_hits_total", "", &st.hits)
	return func(i int) {
		st.queries++
		st.hits++
		sc.Event1("flowcache", "hit", int64(i), "flow", 1)
	}
}

func BenchmarkNopScopeFastPath(b *testing.B) {
	query := fastPath(obs.Scope{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(i)
	}
}

func BenchmarkEnabledScopeFastPath(b *testing.B) {
	query := fastPath(obs.New(obs.NewRegistry(), obs.NewTracer(1<<12)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(i)
	}
}

// TestNopScopeFastPathAllocs enforces the zero-allocation contract in the
// regular test run, not just under -bench.
func TestNopScopeFastPathAllocs(t *testing.T) {
	sc := obs.Scope{}
	query := fastPath(sc)
	h := sc.Histogram("liteflow_core_stall_ns", "", obs.DurationBuckets())
	at := 0
	allocs := testing.AllocsPerRun(1000, func() {
		query(at)
		h.Observe(1e4)
		sc.Span1("snapshot", "stall", int64(at), 10, "flow", 1)
		at++
	})
	if allocs != 0 {
		t.Fatalf("no-op scope fast path allocates %.1f times per op, want 0", allocs)
	}
}
