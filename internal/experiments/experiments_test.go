package experiments

import (
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/netsim"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Fatalf("registry has %d experiments, want 23", len(all))
	}
	seen := map[string]bool{}
	for _, r := range all {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Fatalf("incomplete registration %+v", r.ID)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate ID %s", r.ID)
		}
		seen[r.ID] = true
		if got, ok := ByID(r.ID); !ok || got.ID != r.ID {
			t.Fatalf("ByID(%s) failed", r.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID must reject unknown IDs")
	}
}

func TestResultString(t *testing.T) {
	r := Result{ID: "x", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "a", X: []float64{1, 2}, Y: []float64{3, 4}},
			{Name: "b", X: []float64{2}, Y: []float64{9}}},
		Notes: []string{"n1"}}
	s := r.String()
	for _, want := range []string{"== x: t ==", "a", "b", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
	// Sparse series render "-" for missing X values.
	if !strings.Contains(s, "-") {
		t.Error("missing values must render as -")
	}
	if (Result{ID: "e"}).String() == "" {
		t.Error("empty result must still render a header")
	}
}

func TestConfigScaling(t *testing.T) {
	c := Config{Scale: 0.5}
	if got := c.dur(10 * netsim.Second); got != 5*netsim.Second {
		t.Errorf("dur = %v", got)
	}
	if got := c.count(100); got != 50 {
		t.Errorf("count = %v", got)
	}
	tiny := Config{Scale: 1e-9}
	if tiny.dur(netsim.Second) < netsim.Millisecond || tiny.count(10) < 1 {
		t.Error("scaling must respect floors")
	}
}

// Get returns the series with the given name, or nil.
func (r Result) Get(name string) *Series {
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	return nil
}
