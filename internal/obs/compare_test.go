package obs

import "testing"

func TestCompareDeltasSumAndMean(t *testing.T) {
	reg := NewRegistry()
	sc := New(reg, nil)
	c1 := sc.Counter("q_total", "queries", Label{Key: "host", Value: "0"})
	c2 := sc.Counter("q_total", "queries", Label{Key: "host", Value: "1"})
	var depth float64
	GaugeOf(sc, "depth", "queue depth", &depth)

	fr := NewFlightRecorder(0)
	// Before window [0,4s]: c1 at 10/s, c2 at 20/s, gauge at 5.
	// After window [4s,8s]: c1 at 5/s, c2 at 10/s, gauge at 9.
	for s := int64(0); s <= 8; s++ {
		if s > 0 {
			if s <= 4 {
				c1.Add(10)
				c2.Add(20)
				depth = 5
			} else {
				c1.Add(5)
				c2.Add(10)
				depth = 9
			}
		}
		fr.Sample(reg, s*1e9)
	}
	// Interior windows: [1s,4s] holds only the 10/s//20/s/5 samples, [5s,8s]
	// only the 5/s//10/s/9 ones (window boundaries include their samples).
	before := TimeWindow{From: 1e9, To: 4e9}
	after := TimeWindow{From: 5e9, To: 8e9}

	deltas := fr.Delta(before, after)
	sum := CompareDeltas(deltas, AggSum, func(d SeriesDelta) bool { return d.Cumulative })
	if sum.N != 2 {
		t.Fatalf("cumulative series matched = %d, want 2", sum.N)
	}
	if sum.Before != 30 || sum.After != 15 {
		t.Errorf("summed rates = %g -> %g, want 30 -> 15", sum.Before, sum.After)
	}

	mean := CompareDeltas(deltas, AggMean, func(d SeriesDelta) bool { return !d.Cumulative })
	if mean.N != 1 {
		t.Fatalf("level series matched = %d, want 1", mean.N)
	}
	if mean.Before != 5 || mean.After != 9 {
		t.Errorf("level means = %g -> %g, want 5 -> 9", mean.Before, mean.After)
	}

	// A selector nobody matches is inconclusive, not zero-valued evidence.
	none := CompareDeltas(deltas, AggSum, func(SeriesDelta) bool { return false })
	if none.N != 0 || none.Before != 0 || none.After != 0 {
		t.Errorf("empty selection: %+v", none)
	}
}

func TestCompareDeltasNilRecorder(t *testing.T) {
	var fr *FlightRecorder
	got := CompareDeltas(fr.Delta(TimeWindow{0, 1}, TimeWindow{1, 2}), AggSum, nil)
	if got.N != 0 || got.Before != 0 || got.After != 0 {
		t.Errorf("nil recorder must return the zero DeltaStat: %+v", got)
	}
}

func TestScopeLabels(t *testing.T) {
	if got := Nop().Labels(); len(got) != 0 {
		t.Errorf("no-op scope labels = %v, want none", got)
	}
	sc := New(NewRegistry(), nil).With(Label{Key: "host", Value: "3"}, Label{Key: "az", Value: "a"})
	got := sc.Labels()
	if len(got) != 2 || got[0] != (Label{Key: "host", Value: "3"}) || got[1] != (Label{Key: "az", Value: "a"}) {
		t.Fatalf("Labels = %v", got)
	}
	got[0].Value = "mutated"
	if sc.Labels()[0].Value != "3" {
		t.Error("Labels must return a copy, not the backing slice")
	}
}
