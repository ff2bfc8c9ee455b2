package obs

import (
	"fmt"
	"math"
)

// This file implements deterministic telemetry folding: whoever runs several
// pieces of work under one scope — the experiment harness its jobs, a figure
// its rigs — gives each a private child (Fork) and joins the children back in
// a fixed order, registration order and never completion order. Every fold
// below is order-deterministic, so a parallel run exports byte-identical
// Prometheus text and trace JSON to a serial run of the same jobs; and every
// piece of work counts into instruments of its own, so what its components
// report about themselves does not depend on what else ran under the scope.

// Fork returns a private child of sc — a registry and a tracer of its own
// (the tracer of the parent's capacity, so a join retains exactly the events a
// shared tracer would) wherever sc has one, under sc's labels — a
// private child of fr likewise (nil stays nil), and the join that folds both
// back. The simulation stack is single-threaded per engine, so children may
// run on separate goroutines; joins must be called one at a time, in the
// order the work would have run serially, each after its child's work is
// done.
func Fork(sc Scope, fr *FlightRecorder) (Scope, *FlightRecorder, func()) {
	var reg *Registry
	var tr *Tracer
	var cfr *FlightRecorder
	if sc.reg != nil {
		reg = NewRegistry()
	}
	if sc.tracer != nil {
		tr = NewTracer(sc.tracer.Cap())
	}
	if fr != nil {
		cfr = NewFlightRecorder(fr.cap)
	}
	child := New(reg, tr)
	child.labels = sc.labels
	// A half the parent lacks is nil in the child, and every Merge ignores a
	// nil source.
	return child, cfr, func() {
		sc.reg.Merge(reg)
		sc.tracer.Merge(tr)
		fr.Merge(cfr)
	}
}

// Merge folds src into r: counters add, gauges take src's value when src has
// observed one (last-merged-wins, mirroring last-write-wins of a shared
// serial registry), histograms add bucket counts and sums. Families or
// series missing from r are created; a name registered with different kinds
// panics, exactly like Registry lookups. src is left unchanged; callers must
// not merge a registry into itself.
func (r *Registry) Merge(src *Registry) {
	if src == nil {
		return
	}
	if src == r {
		panic("obs: cannot merge a registry into itself")
	}
	// Snapshot src under its own lock, then fold under r's: the two locks
	// are never held together in the other order, so this cannot deadlock.
	src.mu.Lock()
	fams := make([]*family, 0, len(src.families))
	for _, f := range src.families {
		fams = append(fams, f)
	}
	src.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range fams {
		for key, s := range f.series {
			dst := r.lookup(f.name, f.help, f.kind, key)
			switch f.kind {
			case kindCounter:
				dst.counter.Add(int64(s.value(kindCounter)))
			case kindGauge:
				dst.gauge.Store(math.Float64bits(s.value(kindGauge)))
			case kindHistogram:
				dst.histOf(s.hist.bounds).merge(s.hist)
			}
		}
	}
}

// merge folds src's buckets, sum and max into h. Bucket bounds must
// match (both sides come from the same instrument definitions).
func (h *Histogram) merge(src *Histogram) {
	if len(h.bounds) != len(src.bounds) {
		panic(fmt.Sprintf("obs: merging histograms with %d vs %d buckets", len(h.bounds), len(src.bounds)))
	}
	for i, b := range h.bounds {
		if b != src.bounds[i] {
			panic("obs: merging histograms with different bucket bounds")
		}
	}
	for i, c := range src.counts {
		h.counts[i] += c
	}
	h.sum += src.sum
	if m := src.Max(); m > h.max {
		h.max = m
	}
}

// Merge folds src's events into t in src's emission order, as if each had
// been emitted against t. Ring eviction applies as usual, so a bounded
// destination keeps the most recent events of the concatenation. Evictions
// src already performed carry over into t's count, so after folding every
// per-job tracer the destination reports exactly the evictions a shared
// serial tracer would have (total emitted minus capacity). The fold updates
// only t's internal count, not a bound liteflow_trace_evicted_total counter:
// Fork binds each child tracer to its child registry, whose counter
// Registry.Merge sums, so adding them here too would double-count.
func (t *Tracer) Merge(src *Tracer) {
	if t == nil || src == nil {
		return
	}
	if src == t {
		panic("obs: cannot merge a tracer into itself")
	}
	for _, e := range src.Events() {
		t.Emit(e)
	}
	if n := src.Evicted(); n > 0 {
		t.mu.Lock()
		t.evicted += n
		t.mu.Unlock()
	}
}
