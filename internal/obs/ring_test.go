package obs

import (
	"slices"
	"testing"
)

// TestRingMatchesSliceReference: at every push, a ring keeps what a plain
// slice that drops its first element past the capacity keeps — the eviction
// flag, each element by at, and slice — and never holds more than its
// capacity.
func TestRingMatchesSliceReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 1024} {
		r := newRing[int](capacity)
		var ref []int
		for i := 0; i <= 3*capacity; i++ {
			if got := r.slice(); got == nil || !slices.Equal(got, ref) {
				t.Fatalf("cap %d after %d pushes: slice %v, want %v", capacity, i, got, ref)
			}
			for k, want := range ref {
				if got := r.at(k); got != want {
					t.Fatalf("cap %d after %d pushes: at(%d) = %d, want %d", capacity, i, k, got, want)
				}
			}
			if len(r.buf) > capacity {
				t.Fatalf("cap %d after %d pushes: holds %d", capacity, i, len(r.buf))
			}
			slot, evicted := r.next()
			*slot = i
			ref = append(ref, i)
			if want := len(ref) > capacity; evicted != want {
				t.Fatalf("cap %d push %d: evicted %v, want %v", capacity, i, evicted, want)
			}
			if len(ref) > capacity {
				ref = ref[1:]
			}
		}
	}
}

// TestForkMergeKeepsCapEvents: a forked child tracer has its parent's
// capacity, and joining it keeps exactly Cap() events, the newest, with the
// rest counted as evicted.
func TestForkMergeKeepsCapEvents(t *testing.T) {
	const capacity = 8
	parent := New(nil, NewTracer(capacity))
	parent.tracer.Emit(Event{At: -1})
	child, _, join := Fork(parent, nil)
	if got := child.tracer.Cap(); got != capacity {
		t.Fatalf("child Cap() = %d, want the parent's %d", got, capacity)
	}
	for i := range 3 * capacity {
		child.tracer.Emit(Event{At: int64(i)})
	}
	join()
	events := parent.tracer.Events()
	if len(events) != parent.tracer.Cap() || parent.tracer.Cap() != capacity || parent.tracer.Evicted() != 2*capacity+1 {
		t.Fatalf("kept %d events (Cap() %d), evicted %d; want %d kept and %d evicted",
			len(events), parent.tracer.Cap(), parent.tracer.Evicted(), capacity, 2*capacity+1)
	}
	for k, e := range events {
		if want := int64(2*capacity + k); e.At != want {
			t.Fatalf("event %d at %d, want %d", k, e.At, want)
		}
	}
}
