package obs

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// populate records the same instrument shapes a worker scope would: a
// counter and a histogram labelled with the logical job, and a write to
// *last, the field behind the job's last_value gauge view.
func populate(r *Registry, job string, base float64, last *float64) {
	c := r.Counter("jobs_total", "jobs", Label{Key: "job", Value: job})
	c.Add(int64(base))
	*last = base * 2
	h := r.Histogram("latency_ns", "latency", ExpBuckets(10, 10, 4), Label{Key: "job", Value: job})
	h.Observe(base)
	h.Observe(base * 3)
}

func TestRegistryMergeMatchesSequential(t *testing.T) {
	batches := []struct {
		job  string
		base float64
	}{{"a", 5}, {"b", 50}, {"a", 7}} // the third batch hits job a's series again

	// Sequential reference: everything recorded against one registry, one
	// gauge view per job, so job a's gauge exports its last write (14).
	seq := NewRegistry()
	seqLast := map[string]*float64{"a": new(float64), "b": new(float64)}
	for _, job := range []string{"a", "b"} {
		GaugeOf(New(seq, nil), "last_value", "last observed", seqLast[job], Label{Key: "job", Value: job})
	}
	for _, b := range batches {
		populate(seq, b.job, b.base, seqLast[b.job])
	}

	// Parallel shape: three private registries, each with its own view on
	// its job's gauge, merged in job order; parts 0 and 2 collide on job a.
	parts := make([]*Registry, len(batches))
	lasts := make([]float64, len(batches))
	for i, b := range batches {
		parts[i] = NewRegistry()
		GaugeOf(New(parts[i], nil), "last_value", "last observed", &lasts[i], Label{Key: "job", Value: b.job})
		populate(parts[i], b.job, b.base, &lasts[i])
	}
	dst := NewRegistry()
	for _, p := range parts {
		dst.Merge(p)
	}

	want := string(seq.PrometheusText())
	got := string(dst.PrometheusText())
	if want != got {
		t.Fatalf("merged export differs from sequential export:\n--- sequential ---\n%s\n--- merged ---\n%s", want, got)
	}
	if !strings.Contains(got, "jobs_total") {
		t.Fatalf("export missing expected family:\n%s", got)
	}
	if v := dst.Value("last_value", Label{Key: "job", Value: "a"}); v != 14 {
		t.Fatalf(`merged last_value{job="a"} = %v, want the last-merged 14`, v)
	}
}

func TestRegistryMergeSummaries(t *testing.T) {
	seq := NewRegistry()
	hs := seq.Histogram("h", "h", ExpBuckets(1, 2, 8))
	for i := 1; i <= 10; i++ {
		hs.Observe(float64(i))
	}

	a, b := NewRegistry(), NewRegistry()
	ha := a.Histogram("h", "h", ExpBuckets(1, 2, 8))
	hb := b.Histogram("h", "h", ExpBuckets(1, 2, 8))
	for i := 1; i <= 5; i++ {
		ha.Observe(float64(i))
	}
	for i := 6; i <= 10; i++ {
		hb.Observe(float64(i))
	}
	dst := NewRegistry()
	dst.Merge(a)
	dst.Merge(b)
	hd := dst.Histogram("h", "h", ExpBuckets(1, 2, 8))

	if hd.Count() != hs.Count() {
		t.Fatalf("count: got %d want %d", hd.Count(), hs.Count())
	}
	if hd.Sum() != hs.Sum() {
		t.Fatalf("sum: got %v want %v", hd.Sum(), hs.Sum())
	}
	gs, ws := hd.Summary(), hs.Summary()
	if gs.N() != ws.N() || gs.Min() != ws.Min() || gs.Max() != ws.Max() {
		t.Fatalf("summary n/min/max: got %v want %v", gs, ws)
	}
	if d := gs.Mean() - ws.Mean(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("summary mean: got %v want %v", gs.Mean(), ws.Mean())
	}
}

func TestRegistryMergeSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic merging a registry into itself")
		}
	}()
	r := NewRegistry()
	r.Merge(r)
}

func TestTracerMergePreservesOrder(t *testing.T) {
	seq := NewTracer(16)
	seq.Emit(Event{Name: "e1"})
	seq.Emit(Event{Name: "e2"})
	seq.Emit(Event{Name: "e3"})

	a, b := NewTracer(16), NewTracer(16)
	a.Emit(Event{Name: "e1"})
	b.Emit(Event{Name: "e2"})
	b.Emit(Event{Name: "e3"})
	dst := NewTracer(16)
	dst.Merge(a)
	dst.Merge(b)

	want, got := seq.Events(), dst.Events()
	if len(want) != len(got) {
		t.Fatalf("event count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Name != got[i].Name {
			t.Fatalf("event %d: got %q want %q", i, got[i].Name, want[i].Name)
		}
	}
}

// TestTracerMergeFoldsEvictions: after folding per-job tracers, the
// destination must report exactly the evictions a shared serial tracer would
// have — total emitted minus capacity — so liteflow_trace_evicted_total stays
// byte-identical between serial and parallel runs.
func TestTracerMergeFoldsEvictions(t *testing.T) {
	const cap = 8
	emit := func(tr *Tracer, base, n int) {
		for i := 0; i < n; i++ {
			tr.Emit(Event{At: int64(base + i), Name: "e"})
		}
	}
	serial := NewTracer(cap)
	emit(serial, 0, 12)
	emit(serial, 100, 5)

	a, b := NewTracer(cap), NewTracer(cap)
	emit(a, 0, 12) // overflows privately: 4 evicted
	emit(b, 100, 5)
	dst := NewTracer(cap)
	dst.Merge(a)
	dst.Merge(b)

	if dst.Evicted() != serial.Evicted() {
		t.Fatalf("evicted: merged %d, serial %d", dst.Evicted(), serial.Evicted())
	}
	want, got := serial.Events(), dst.Events()
	if len(want) != len(got) {
		t.Fatalf("event count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].At != got[i].At {
			t.Fatalf("event %d: got At=%d want At=%d", i, got[i].At, want[i].At)
		}
	}
}

// combine returns a fresh registry holding a ⊕ b (merge both into an empty
// one, in order) — the binary operation whose associativity the property
// test below checks.
func combine(a, b *Registry) *Registry {
	out := NewRegistry()
	out.Merge(a)
	out.Merge(b)
	return out
}

// randomPart populates r (and mirror, when non-nil) with a random workload:
// counter adds and histogram observations on shared series, plus one gauge
// view owned exclusively by this part (one view per gauge series is what
// makes gauge merging order-insensitive). Values are integers, which float64
// represents exactly, so histogram sums are associative at the bit level.
func randomPart(rng *rand.Rand, r, mirror *Registry, part int) {
	apply := func(f func(*Registry)) {
		f(r)
		if mirror != nil {
			f(mirror)
		}
	}
	level, viewed := 0.0, false
	nOps := 1 + rng.Intn(8)
	for i := 0; i < nOps; i++ {
		switch rng.Intn(3) {
		case 0:
			v := int64(rng.Intn(1000))
			lbl := Label{Key: "job", Value: string(rune('a' + rng.Intn(3)))}
			apply(func(reg *Registry) { reg.Counter("ops_total", "", lbl).Add(v) })
		case 1:
			v := float64(rng.Intn(100000))
			apply(func(reg *Registry) {
				reg.Histogram("lat_ns", "", ExpBuckets(10, 10, 5)).Observe(v)
			})
		default:
			level = float64(rng.Intn(1000))
			if !viewed {
				lbl := Label{Key: "part", Value: strconv.Itoa(part)}
				apply(func(reg *Registry) { GaugeOf(New(reg, nil), "level", "", &level, lbl) })
				viewed = true
			}
		}
	}
}

// TestRegistryMergeProperty is the satellite property test: across random
// workloads, merging registries is (1) order-insensitive — any permutation of
// parts exports identical bytes, (2) associative — left and right fold
// groupings export identical bytes, and (3) faithful — both match the
// sequential reference that absorbed every operation directly. Holds for
// counters and gauges outright (gauges under the one-writer-per-series
// partitioning the harness guarantees) and bit-identically for histogram
// sums because the workload uses exactly-representable values.
func TestRegistryMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 40; iter++ {
		k := 2 + rng.Intn(4)
		parts := make([]*Registry, k)
		ref := NewRegistry()
		for j := range parts {
			parts[j] = NewRegistry()
			randomPart(rng, parts[j], ref, j)
		}
		want := string(ref.PrometheusText())

		// (1) order-insensitivity over a random permutation.
		perm := rng.Perm(k)
		shuffled := NewRegistry()
		for _, j := range perm {
			shuffled.Merge(parts[j])
		}
		if got := string(shuffled.PrometheusText()); got != want {
			t.Fatalf("iter %d: permuted merge %v differs from sequential:\n--- want\n%s--- got\n%s",
				iter, perm, want, got)
		}

		// (2) associativity: ((p0 ⊕ p1) ⊕ p2) … vs (p0 ⊕ (p1 ⊕ (p2 ⊕ …))).
		left := parts[0]
		for j := 1; j < k; j++ {
			left = combine(left, parts[j])
		}
		right := parts[k-1]
		for j := k - 2; j >= 0; j-- {
			right = combine(parts[j], right)
		}
		lt, rt := string(left.PrometheusText()), string(right.PrometheusText())
		if lt != rt {
			t.Fatalf("iter %d: merge is not associative:\n--- left fold\n%s--- right fold\n%s", iter, lt, rt)
		}
		// (3) faithfulness to the sequential reference.
		if lt != want {
			t.Fatalf("iter %d: folded merge differs from sequential reference:\n--- want\n%s--- got\n%s",
				iter, want, lt)
		}
	}
}
