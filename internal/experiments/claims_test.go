package experiments

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/stats"
)

// The claims assert the qualitative shapes the paper reports, at reduced
// scale. Magnitudes live in EXPERIMENTS.md from full-scale runs.

// claim is one registered experiment's headline: the scale its run uses
// (every claim runs at seed 1) and a check of the Result. A check returns nil
// when the headline holds, a partial error when only part of it does, and
// any other error when an assertion fails.
type claim struct {
	id    string
	scale float64
	short bool // cheap enough to run under -short as well
	check func(Result) error
}

// partial is a claim that holds only in part; the text names what does not.
// EXPERIMENTS.md marks exactly these experiments 🟡.
type partial string

func (p partial) Error() string { return "holds in part; not reproduced: " + string(p) }

// verdict gathers a claim's failed assertions.
type verdict []error

func (v *verdict) errorf(format string, args ...any) {
	*v = append(*v, fmt.Errorf(format, args...))
}

func (v verdict) err() error { return errors.Join(v...) }

// scanNote scans the first of r's notes that matches format into args.
func scanNote(r Result, format string, args ...any) error {
	for _, n := range r.Notes {
		if _, err := fmt.Sscanf(n, format, args...); err == nil {
			return nil
		}
	}
	return fmt.Errorf("no note matches %q in %v", format, r.Notes)
}

// median returns the X at which a CDF series first reaches 0.5.
func median(s *Series) float64 {
	for i, f := range s.Y {
		if f >= 0.5 {
			return s.X[i]
		}
	}
	return s.X[len(s.X)-1]
}

var claims = []claim{
	{id: "fig1a", scale: 0.3, check: func(r Result) error {
		if len(r.Series) != 3 {
			return fmt.Errorf("want 3 CDFs, got %d", len(r.Series))
		}
		var v verdict
		// Mean goodput at 1 ms must beat 100 ms (Figure 1a's conclusion).
		mean := func(name string) float64 { return stats.MeanOf(r.Get(name).X) }
		if mean("1ms") <= mean("100ms") {
			v.errorf("1ms interval %.3f must outperform 100ms %.3f", mean("1ms"), mean("100ms"))
		}
		// CDFs must be monotone.
		for _, s := range r.Series {
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] < s.Y[i-1] {
					v.errorf("%s CDF not monotone", s.Name)
					return v.err()
				}
			}
		}
		return v.err()
	}},
	// The bottleneck queue swings more under a 100 ms exchange interval than
	// under 1 ms. Below scale 0.4 the 100 ms flow has not filled the queue
	// when the window closes (std 0.4 KB at 0.1, 45 KB at 0.3, against 59 KB
	// at 1 ms); at 0.5 it is 70 KB against 59 KB on both engine families.
	{id: "fig1b", scale: 0.5, check: func(r Result) error {
		var std [2]float64
		for i, name := range []string{"1ms", "100ms"} {
			s := r.Get(name)
			if s == nil || len(s.Y) == 0 {
				return fmt.Errorf("missing %s queue series", name)
			}
			var q stats.Summary
			for _, kb := range s.Y {
				q.Add(kb)
			}
			std[i] = q.Std()
		}
		if fine, coarse := std[0], std[1]; coarse <= fine {
			return fmt.Errorf("queue std %.1f KB at 100ms must exceed %.1f KB at 1ms", coarse, fine)
		}
		return nil
	}},
	// Both intervals settle near the 12 Mbps link, at ≈ 86% utilisation;
	// what the paper shows, the 10 ms interval never converging,
	// does not happen here (EXPERIMENTS.md says why).
	{id: "fig2", scale: 0.5, short: true, check: func(r Result) error {
		if len(r.Series) != 2 {
			return fmt.Errorf("want 2 intervals, got %d", len(r.Series))
		}
		var v verdict
		for _, s := range r.Series {
			// Fig02's steady state: the samples after the run's midpoint.
			util := stats.MeanOf(s.Y[len(s.Y)/2+1:]) / 12
			if util < 0.75 || util > 0.95 {
				v.errorf("%s settles at %.0f%% of the 12 Mbps link, want ≈ 86%%", s.Name, util*100)
			}
		}
		if err := v.err(); err != nil {
			return err
		}
		return partial("the 10 ms interval converges like the 2.5 ms one instead of diverging")
	}},
	{id: "fig3", scale: 0.15, check: func(r Result) error {
		fine := r.Get("CCP-Aurora-1ms")
		if fine == nil {
			return errors.New("missing 1ms series")
		}
		var v verdict
		// The finest interval at N=10 must lose at least a third to BBR
		// (paper: less than half of BBR's 16.1 Gbps).
		if last := fine.Y[len(fine.Y)-1]; last > 0.67 {
			v.errorf("CCP-1ms at N=10 = %.2f of BBR, want ≤ 0.67", last)
		}
		// And it must degrade as N grows.
		if fine.Y[len(fine.Y)-1] >= fine.Y[0] {
			v.errorf("CCP-1ms must degrade with N: %v", fine.Y)
		}
		return v.err()
	}},
	{id: "fig4", scale: 0.2, check: func(r Result) error {
		ms := r.Get("softirq-ms")
		if ms == nil || len(ms.Y) != 4 {
			return errors.New("missing softirq series")
		}
		var v verdict
		// Softirq time grows with exchange frequency within the CCP family
		// (100 ms < 10 ms < 1 ms), and the finest interval dwarfs BBR. (The
		// BBR-vs-CCP-100ms comparison is noise in this substrate: the coarse
		// controller's overdriving alters how many packets the saturated CPU
		// accepts, so only within-family growth is asserted.)
		if !(ms.Y[1] < ms.Y[2] && ms.Y[2] < ms.Y[3]) {
			v.errorf("softirq time must grow with exchange frequency: %v", ms.Y)
		}
		if ms.Y[3] < 3*ms.Y[0] {
			v.errorf("CCP-1ms softirq %v ms must dwarf BBR's %v ms", ms.Y[3], ms.Y[0])
		}
		share := r.Get("softirq-share-%")
		// The paper's BBR softirq share is ~12.6%; ours must be in that regime.
		if share.Y[0] < 5 || share.Y[0] > 25 {
			v.errorf("BBR softirq share = %.1f%%, want ≈ 12.6%%", share.Y[0])
		}
		// CCP-1ms share must dominate BBR's by a large factor (paper: 72.3%).
		if share.Y[3] < 2*share.Y[0] {
			v.errorf("CCP-1ms share %.1f%% must dwarf BBR's %.1f%%", share.Y[3], share.Y[0])
		}
		return v.err()
	}},
	// On the thirds Fig05 reports: in the training pattern the frozen
	// snapshot is within 25% of the adaptive reference, and after the
	// pattern changes it loses more than 30% to it (paper: >30%; 54% at full
	// scale). Scale 0.1 is the smallest of {0.1, 0.25, 0.5} where that holds
	// at seed 1 (52%).
	{id: "fig5", scale: 0.1, check: func(r Result) error {
		static, adaptive := r.Get("kernel-static-Aurora"), r.Get("adaptive-reference")
		if static == nil || adaptive == nil {
			return errors.New("missing series")
		}
		var v verdict
		seg := len(static.Y) / 3
		trainS, trainA := stats.MeanOf(static.Y[:seg]), stats.MeanOf(adaptive.Y[:seg])
		restS, restA := stats.MeanOf(static.Y[seg:]), stats.MeanOf(adaptive.Y[seg:])
		if math.Abs(trainS-trainA) > 0.25*math.Max(trainS, trainA) {
			v.errorf("training pattern: static %.3f vs adaptive %.3f Gbps, want within 25%%", trainS, trainA)
		}
		if loss := 1 - restS/restA; loss <= 0.30 {
			v.errorf("after the change static %.3f vs adaptive %.3f Gbps loses %.0f%%, want > 30%%", restS, restA, loss*100)
		}
		return v.err()
	}},
	{id: "fig7", scale: 0.3, short: true, check: func(r Result) error {
		if len(r.Series) != 4 {
			return fmt.Errorf("want 4 NNs, got %d", len(r.Series))
		}
		var v verdict
		for _, s := range r.Series {
			// C = 1 collapses; C = 1000 is within the paper's ~2%.
			if s.Y[0] < s.Y[3] {
				v.errorf("%s: loss at C=1 (%.4f) must exceed loss at C=1000 (%.4f)", s.Name, s.Y[0], s.Y[3])
			}
			if s.Y[3] > 0.02 {
				v.errorf("%s: loss at C=1000 = %.4f, want ≤ 2%%", s.Name, s.Y[3])
			}
		}
		return v.err()
	}},
	{id: "fig8", scale: 0.5, check: func(r Result) error {
		g := r.Get("snapshot-goodput")
		if g == nil || len(g.Y) < 3 {
			return errors.New("missing snapshot goodput series")
		}
		if first, last := g.Y[0], g.Y[len(g.Y)-1]; last <= first {
			return fmt.Errorf("snapshot goodput must improve with training: %.2f → %.2f", first, last)
		}
		return nil
	}},
	{id: "fig11", scale: 0.25, check: func(r Result) error {
		g := r.Get("goodput")
		if g == nil || len(g.Y) != 12 {
			return fmt.Errorf("want 12 schemes, got %v", g)
		}
		var v verdict
		lfAurora, ccpAurora100 := g.Y[0], g.Y[4]
		lfMOCC, ccpMOCC100 := g.Y[5], g.Y[9]
		if lfAurora <= ccpAurora100 {
			v.errorf("LF-Aurora %.3f must beat CCP-Aurora-100ms %.3f", lfAurora, ccpAurora100)
		}
		if lfMOCC <= ccpMOCC100 {
			v.errorf("LF-MOCC %.3f must beat CCP-MOCC-100ms %.3f", lfMOCC, ccpMOCC100)
		}
		// LF must be comparable to the finest CCP interval (within 5%).
		if lfAurora < g.Y[1]*0.95 {
			v.errorf("LF-Aurora %.3f must match CCP-Aurora-ACK %.3f", lfAurora, g.Y[1])
		}
		return v.err()
	}},
	{id: "fig12", scale: 0.25, check: func(r Result) error {
		mean := map[string]float64{}
		for _, name := range []string{"LF-Aurora", "LF-MOCC", "LF-Aurora-N-O-A"} {
			s := r.Get(name)
			if s == nil {
				return fmt.Errorf("missing %s", name)
			}
			mean[name] = stats.MeanOf(s.Y)
		}
		var v verdict
		aurora, mocc, noa := mean["LF-Aurora"], mean["LF-MOCC"], mean["LF-Aurora-N-O-A"]
		if aurora <= noa*1.2 {
			v.errorf("adaptation must clearly beat frozen: LF-Aurora %.3f vs N-O-A %.3f", aurora, noa)
		}
		if mocc <= noa*1.2 {
			v.errorf("LF-MOCC %.3f must clearly beat N-O-A %.3f", mocc, noa)
		}
		return v.err()
	}},
	{id: "fig13", scale: 0.15, check: func(r Result) error {
		lf, cubic := r.Get("LF-Aurora"), r.Get("CUBIC")
		if lf == nil || cubic == nil {
			return errors.New("missing series")
		}
		var v verdict
		for i, y := range lf.Y {
			if y < 0.90 {
				v.errorf("LF-Aurora at N=%g = %.2f of BBR, want ≥ 0.90 (paper: <5%% loss)", lf.X[i], y)
			}
		}
		// CUBIC pays its per-ACK arithmetic (paper: LF beats it by ~17.5%).
		if lastLF, lastCubic := lf.Y[len(lf.Y)-1], cubic.Y[len(cubic.Y)-1]; lastLF <= lastCubic {
			v.errorf("LF-Aurora %.2f must beat CUBIC %.2f", lastLF, lastCubic)
		}
		return v.err()
	}},
	{id: "fig14", scale: 0.25, check: func(r Result) error {
		ov, gp := r.Get("softirq-share-%"), r.Get("single-flow-goodput")
		if ov == nil || gp == nil || len(ov.Y) != 5 {
			return errors.New("missing series")
		}
		var v verdict
		// Overhead falls as T grows (paper: T ≥ 100 ms ≈ kernel CC's ~12.6%).
		if !(ov.Y[0] > ov.Y[2] && ov.Y[2] > ov.Y[4]*0.8) {
			v.errorf("softirq share must fall with T: %v", ov.Y)
		}
		// Goodput peaks in the recommended 100 ms–1 s band and is worst with
		// effectively no adaptation (T = 10 s).
		if best := gp.Y[2]; best < gp.Y[4] { // T = 100 ms
			v.errorf("T=100ms goodput %.3f must beat T=10s %.3f", best, gp.Y[4])
		}
		return v.err()
	}},
	{id: "dummy", scale: 0.25, check: func(r Result) error {
		var v verdict
		s := r.Get("LF-Dummy-NN")
		for i, y := range s.Y {
			if y < 0.95 || y > 1.10 {
				v.errorf("LF-Dummy at N=%g = %.2f of BBR, want within ~5%%", s.X[i], y)
			}
		}
		return v.err()
	}},
	{id: "fig15", scale: 0.3, short: true, check: func(r Result) error {
		for _, name := range []string{"LF-FFNN", "char-FFNN", "netlink-FFNN"} {
			if r.Get(name) == nil {
				return fmt.Errorf("missing %s", name)
			}
		}
		var v verdict
		lf, char, nl := median(r.Get("LF-FFNN")), median(r.Get("char-FFNN")), median(r.Get("netlink-FFNN"))
		if !(lf < char && char < nl) {
			v.errorf("latency ordering LF(%.2f) < char(%.2f) < netlink(%.2f) violated", lf, char, nl)
		}
		// µs scale, like the paper's 2.19/4.34/8.09.
		if lf > 5 || nl > 20 {
			v.errorf("latencies out of µs scale: lf=%.2f nl=%.2f", lf, nl)
		}
		return v.err()
	}},
	{id: "fig16", scale: 0.1, check: func(r Result) error {
		if len(r.Series) != 4 {
			return fmt.Errorf("want 4 schemes, got %d", len(r.Series))
		}
		var v verdict
		for _, s := range r.Series {
			if len(s.Y) != 3 {
				v.errorf("%s missing classes", s.Name)
				return v.err()
			}
			for c, y := range s.Y {
				if y <= 0 {
					v.errorf("%s class %d has no FCT data", s.Name, c)
				}
			}
			// Long flows must cost far more than short ones in every scheme.
			if s.Y[2] < s.Y[0] {
				v.errorf("%s: long FCT %.0f < short %.0f", s.Name, s.Y[2], s.Y[0])
			}
		}
		if err := v.err(); err != nil {
			return err
		}
		return partial("LF-FFNN's FCT lead over char-FFNN and netlink-FFNN sits inside run noise (the latency half is Figure 15's)")
	}},
	// LF-MLP's median FCT beats char-MLP's on short and long flows (at this
	// scale and seed 2378 vs 3356 µs short, 32203 vs 43942 µs long). The
	// paper's other half, char-MLP below ECMP, is not asserted here: its
	// short medians are 3356 vs 3331 µs, under 1% apart.
	{id: "fig17", scale: 0.1, check: func(r Result) error {
		if len(r.Series) != 4 {
			return fmt.Errorf("want 4 schemes, got %d", len(r.Series))
		}
		var v verdict
		for _, s := range r.Series {
			for c, y := range s.Y {
				if y <= 0 {
					v.errorf("%s class %d has no FCT data", s.Name, c)
				}
			}
		}
		medians := func(name string) (m [3]float64, err error) {
			var mean [3]float64
			err = scanNote(r, name+": mean short %fµs mid %fµs long %fµs | median %f/%f/%fµs",
				&mean[0], &mean[1], &mean[2], &m[0], &m[1], &m[2])
			return m, err
		}
		lf, err := medians("LF-MLP")
		if err != nil {
			return err
		}
		char, err := medians("char-MLP")
		if err != nil {
			return err
		}
		if lf[0] >= char[0] {
			v.errorf("LF-MLP's median short FCT %.0f µs must beat char-MLP's %.0f µs", lf[0], char[0])
		}
		if lf[2] >= char[2] {
			v.errorf("LF-MLP's median long FCT %.0f µs must beat char-MLP's %.0f µs", lf[2], char[2])
		}
		return v.err()
	}},
	{id: "abl-taylor", scale: 1, short: true, check: func(r Result) error {
		var v verdict
		for _, actName := range []string{"tanh", "sigmoid"} {
			errS, mulS := r.Get(actName+"-taylor-maxerr"), r.Get(actName+"-taylor-muls")
			if errS == nil || mulS == nil {
				v.errorf("missing %s series", actName)
				return v.err()
			}
			// Taylor cost grows with degree; even degree 11 stays far less
			// accurate over [-4,4] than the LUT's uniform precision.
			for i := 1; i < len(mulS.Y); i++ {
				if mulS.Y[i] <= mulS.Y[i-1] {
					v.errorf("%s: muls must grow with degree: %v", actName, mulS.Y)
				}
			}
			if last := errS.Y[len(errS.Y)-1]; last < 1e-3 {
				v.errorf("%s: degree-11 Taylor should still err badly at range edges, got %v", actName, last)
			}
		}
		return v.err()
	}},
	{id: "abl-update", scale: 0.3, check: func(r Result) error {
		gaps := r.Get("worst-decision-gap-ms")
		if gaps == nil || len(gaps.Y) != 2 {
			return errors.New("missing gap series")
		}
		var v verdict
		standby, blocking := gaps.Y[0], gaps.Y[1]
		// Blocking install must stall decisions ~the full lock time; the
		// active-standby switch must not (worst gap stays at MI scale).
		if blocking < 100 {
			v.errorf("blocking install worst gap = %.1f ms, want ≈ 150", blocking)
		}
		if standby > 60 {
			v.errorf("active-standby worst gap = %.1f ms, want MI-scale", standby)
		}
		return v.err()
	}},
	// The acceptance criteria of fault injection, read from the chaos run's
	// notes: faults and outages were injected, the watchdog fired, the fast
	// path kept answering queries through the outages, outage-dropped
	// batches were counted and goodput stays non-trivial.
	{id: "resilience", scale: 0.25, check: func(r Result) error {
		var chaos float64
		var faults, outages, degraded, queries, outageDrops, skip int
		for _, err := range []error{
			scanNote(r, "goodput: clean %f vs chaos %f Gbps", new(float64), &chaos),
			scanNote(r, "faults injected: %d total (%d drops, %d corrupt, %d delays, %d reorders, %d build fails, %d outages",
				&faults, &skip, &skip, &skip, &skip, &skip, &outages),
			scanNote(r, "degradation: %d degraded, %d recovered; fast path answered %d queries",
				&degraded, &skip, &queries),
			scanNote(r, "slow path: %d updates, %d install retries, %d abandoned, %d outage-dropped batches",
				&skip, &skip, &skip, &outageDrops),
		} {
			if err != nil {
				return err
			}
		}
		if faults == 0 {
			return errors.New("chaos profile injected no faults")
		}
		var v verdict
		if outages == 0 {
			v.errorf("expected at least one injected service outage: %v", r.Notes)
		}
		if degraded == 0 {
			v.errorf("watchdog never degraded despite outages: %v", r.Notes)
		}
		if queries == 0 {
			v.errorf("fast path answered no queries under faults")
		}
		if chaos <= 0 {
			v.errorf("goodput collapsed to %.3f Gbps under faults", chaos)
		}
		if outageDrops == 0 {
			v.errorf("no batches were dropped by the injected outages")
		}
		return v.err()
	}},
	{id: "flow-churn", scale: 0.2, check: func(r Result) error {
		cached := r.Get("cached-flows")
		if cached == nil || len(cached.Y) < 10 {
			return errors.New("missing time series")
		}
		peakCached := 0.0
		for _, y := range cached.Y {
			peakCached = math.Max(peakCached, y)
		}
		if peakCached < 100 {
			return fmt.Errorf("peak cached = %.0f — churn never filled the cache", peakCached)
		}
		// The incremental-sweep bound, as reported in the notes: no single
		// tick scanned anything close to the peak cache population.
		var maxTick, peak, scans int64
		if err := scanNote(r, "incremental sweep: max tick scan %d of peak %d cached (%d scans total)",
			&maxTick, &peak, &scans); err != nil {
			return err
		}
		var v verdict
		if maxTick == 0 || scans == 0 {
			v.errorf("sweeper did no work under churn")
		}
		if maxTick > peak/4 {
			v.errorf("one sweep tick scanned %d of peak %d cached — not incremental", maxTick, peak)
		}
		// Everything drains: the last sample and the drain note must agree.
		if last := cached.Y[len(cached.Y)-1]; last > peakCached/2 {
			v.errorf("cache still near peak at run end: %.0f of %.0f", last, peakCached)
		}
		return v.err()
	}},
	// Goodput scales with member count (queries never block on the control
	// plane) and every run drains its staleness by the end of the recovery
	// tail.
	{id: "fleet-scale", scale: 0.25, check: func(r Result) error {
		for _, name := range []string{"goodput-clean", "goodput-chaos", "stale-clean", "stale-chaos"} {
			if s := r.Get(name); s == nil || len(s.Y) != 3 {
				return fmt.Errorf("series %s missing or wrong length: %v", name, s)
			}
		}
		var v verdict
		for _, name := range []string{"goodput-clean", "goodput-chaos"} {
			g := r.Get(name)
			for i := 1; i < len(g.Y); i++ {
				if g.Y[i] <= g.Y[i-1] {
					v.errorf("%s must grow with member count: %v", name, g.Y)
				}
			}
		}
		if len(r.Notes) != 6 {
			v.errorf("want one note per (count, variant) run, got %d", len(r.Notes))
		}
		return v.err()
	}},
	// The figure tells the story: the ungated run regresses, the gated run
	// blocks, and the gated goodput ratio beats the ungated one by a wide
	// margin.
	{id: "fleet-canary", scale: 0.05, short: true, check: func(r Result) error {
		for _, name := range []string{"goodput-qps-ungated", "goodput-qps-gated", "query-p99-ns-ungated", "query-p99-ns-gated"} {
			if r.Get(name) == nil {
				return fmt.Errorf("missing series %q: %+v", name, r.Series)
			}
		}
		var v verdict
		ug, g := r.Get("goodput-qps-ungated"), r.Get("goodput-qps-gated")
		uRatio, gRatio := ug.Y[1]/ug.Y[0], g.Y[1]/g.Y[0]
		if uRatio >= 0.9 {
			v.errorf("ungated run did not regress: ratio %.3f", uRatio)
		}
		if gRatio < uRatio+0.2 {
			v.errorf("gate bought no goodput: gated ratio %.3f vs ungated %.3f", gRatio, uRatio)
		}
		var blocked, regressed bool
		for _, n := range r.Notes {
			blocked = blocked || strings.Contains(n, "BLOCKED")
			regressed = regressed || strings.Contains(n, "REGRESSION: degraded snapshot reached")
		}
		if !blocked || !regressed {
			v.errorf("notes missing verdicts (blocked=%v regressed=%v): %v", blocked, regressed, r.Notes)
		}
		return v.err()
	}},
	{id: "scenarios", scale: 0.1, check: func(r Result) error {
		resp := r.Get("responses")
		if resp == nil || len(resp.Y) == 0 || len(resp.Y) != len(r.Notes) {
			return fmt.Errorf("want one responses point per scenario: %v, notes %v", resp, r.Notes)
		}
		var v verdict
		for i, n := range resp.Y {
			if n == 0 {
				v.errorf("%s: completed no responses", r.Notes[i])
			}
		}
		return v.err()
	}},
}

// TestClaims runs every claim's experiment once, the claims on a pool of
// GOMAXPROCS workers, and checks each as a subtest named by its ID. A
// subtest that -run deselects does not run its experiment. The verdicts of
// EXPERIMENTS.md's Summary must match the claims that ran.
func TestClaims(t *testing.T) {
	// Beside the golden suites, whose serial pass holds one core.
	t.Parallel()
	// The Summary verdict each claim earned; "" if it did not run.
	marks := make([]string, len(claims))
	Pool(len(claims), runtime.GOMAXPROCS(0), func(i int) {
		c := claims[i]
		t.Run(c.id, func(t *testing.T) {
			if testing.Short() && !c.short {
				t.Skip("simulation-heavy")
			}
			r, ok := ByID(c.id)
			if !ok {
				t.Fatalf("claim for unregistered experiment %q", c.id)
			}
			switch err := c.check(r.Run(Config{Scale: c.scale, Seed: 1})); {
			case errors.As(err, new(partial)):
				marks[i] = "🟡"
				t.Log(err)
			case err != nil:
				marks[i] = "❌"
				t.Error(err)
			default:
				marks[i] = "✅"
			}
		})
	})

	byID := map[string]string{}
	for i, c := range claims {
		byID[c.id] = marks[i]
	}
	inSummary := map[string]bool{}
	for name, verdict := range summaryVerdicts(t) {
		id, ok := summaryIDs[name]
		if !ok {
			id = strings.ToLower(strings.ReplaceAll(strings.TrimSuffix(name, " (beyond paper)"), " ", ""))
		}
		inSummary[id] = true
		switch mark, ok := byID[id]; {
		case id == "":
		case !ok:
			t.Errorf("EXPERIMENTS.md Summary row %q names no claim", name)
		case mark != "" && mark != verdict:
			t.Errorf("EXPERIMENTS.md Summary marks %q %s, but its claim gives %s", name, verdict, mark)
		}
	}
	for _, r := range All() {
		if _, ok := byID[r.ID]; !ok || !inSummary[r.ID] {
			t.Errorf("experiment %s needs a claim and an EXPERIMENTS.md Summary row", r.ID)
		}
	}
}

// summaryIDs names the experiment of each Summary row that does not spell
// its ID ("Fig 1a" is fig1a, "flow-churn (beyond paper)" is flow-churn), and
// gives "" for the rows that name no experiment.
var summaryIDs = map[string]string{
	"Table 1": "", "partitioned engine (beyond paper)": "",
	"§5.1 dummy": "dummy", "§3.1 ablation": "abl-taylor", "§3.4 ablation": "abl-update",
}

// summaryVerdicts reads EXPERIMENTS.md's Summary table: row name → verdict.
func summaryVerdicts(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(doc), "\n## Summary\n")
	verdicts := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || strings.HasPrefix(cells[1], "---") || strings.TrimSpace(cells[1]) == "Experiment" {
			continue
		}
		verdicts[strings.TrimSpace(cells[1])] = strings.TrimSpace(cells[2])
	}
	if len(verdicts) == 0 {
		t.Fatal("EXPERIMENTS.md has no Summary table")
	}
	return verdicts
}
