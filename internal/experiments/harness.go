package experiments

import (
	"fmt"
	"sync"
	"time"

	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/stats"
)

// This file is the parallel experiment harness. Experiments are pure
// Config→Result functions, each constructing its own private netsim.Engine,
// so independent experiments — and independent per-seed repetitions of one
// experiment — can run on separate goroutines with no shared simulator
// state. Determinism is preserved by construction:
//
//   - result slots are indexed by job, never by completion order;
//   - telemetry is recorded into a private child of cfg.Obs/cfg.Flight per
//     job and joined into the caller's exporters in fixed job order after
//     every job finished (see obs.Fork), so exported bytes are identical to a
//     serial run of the same jobs;
//   - only wall-clock durations differ between runs, and callers are
//     expected to keep those out of comparable output (cmd/lfbench prints
//     them to stderr).
//
// DESIGN.md §4d documents the invariant; the golden test in
// determinism_test.go enforces it over every registered experiment.

// SuiteOptions configure a RunSuite invocation.
type SuiteOptions struct {
	// Parallel is the worker-pool size. Values below 1 mean serial; note
	// that serial runs still use the same per-job telemetry plumbing, so
	// output bytes never depend on the pool size.
	Parallel int
	// Reps is the number of repetitions per experiment. Rep r runs with
	// Seed+r; results are aggregated per point (median across reps).
	Reps int
}

// SuiteResult is one experiment's outcome across all repetitions.
type SuiteResult struct {
	Runner Runner
	// Result is the aggregate: the rep-0 result when Reps==1, otherwise a
	// per-point median across reps (see aggregate for the exact rules).
	Result Result
	// Reps holds the individual repetition results, rep r at Seed+r.
	Reps []Result
	// Wall holds per-rep host wall-clock durations. Wall time is the one
	// non-deterministic output; callers must not mix it into comparable
	// report bytes.
	Wall []time.Duration
}

// WallQuantile returns the q-th quantile of the per-rep wall times.
func (s SuiteResult) WallQuantile(q float64) time.Duration {
	d := stats.NewDist(len(s.Wall))
	for _, w := range s.Wall {
		d.Add(float64(w))
	}
	return time.Duration(d.Quantile(q))
}

// Pool runs job(0) … job(n−1) on a bounded set of goroutines — workers,
// clamped to [1, n] — and returns once every job has returned. A job reports
// through its index (a slot of a slice the caller owns), so results sit in
// job order whichever worker finished when.
func Pool(n, workers int, job func(i int)) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// RunSuite runs every runner for opts.Reps repetitions over a bounded worker
// pool and returns one aggregated SuiteResult per runner, in runner order.
// cfg.Seed seeds rep 0; rep r uses cfg.Seed+r. Each job records into a
// private child of cfg.Obs and cfg.Flight, and the harness joins the children
// in job order once all jobs are done.
func RunSuite(runners []Runner, cfg Config, opts SuiteOptions) []SuiteResult {
	reps := opts.Reps
	if reps < 1 {
		reps = 1
	}
	nJobs := len(runners) * reps

	type jobOut struct {
		res  Result
		wall time.Duration
		join func()
	}
	outs := make([]jobOut, nJobs)

	Pool(nJobs, opts.Parallel, func(j int) {
		e, r := j/reps, j%reps
		c := cfg
		c.Seed = cfg.Seed + int64(r)
		c.Obs, c.Flight, outs[j].join = obs.Fork(cfg.Obs, cfg.Flight)
		start := time.Now()
		res := runners[e].Run(c)
		outs[j].res = res
		outs[j].wall = time.Since(start)
	})

	// Join per-job telemetry in job order — deterministic regardless of
	// which worker finished when.
	for j := range outs {
		outs[j].join()
	}

	results := make([]SuiteResult, len(runners))
	for e := range runners {
		sr := SuiteResult{Runner: runners[e]}
		for r := 0; r < reps; r++ {
			j := e*reps + r
			sr.Reps = append(sr.Reps, outs[j].res)
			sr.Wall = append(sr.Wall, outs[j].wall)
		}
		sr.Result = aggregate(sr.Reps, cfg.Seed)
		results[e] = sr
	}
	return results
}

// aggregate folds repetition results into one Result. Rules, per series:
//
//   - identical X across reps (figure lines, bars): Y becomes the per-point
//     median across reps and Err the per-point standard deviation;
//   - identical Y across reps (CDFs, where the fractions are fixed and the
//     sample values move): X becomes the per-point median, Y and Err kept;
//   - anything else (shape varies with seed): rep 0 is kept verbatim and a
//     note records the fallback.
//
// Medians of deterministic inputs are deterministic, so aggregated output is
// as reproducible as a single run.
func aggregate(reps []Result, baseSeed int64) Result {
	if len(reps) == 1 {
		return reps[0]
	}
	agg := reps[0]
	agg.Series = make([]Series, len(reps[0].Series))
	agg.Notes = append([]string(nil), reps[0].Notes...)
	for si := range reps[0].Series {
		s0 := reps[0].Series[si]
		aligned := true
		for _, r := range reps[1:] {
			if si >= len(r.Series) || r.Series[si].Name != s0.Name ||
				len(r.Series[si].X) != len(s0.X) || len(r.Series[si].Y) != len(s0.Y) {
				aligned = false
				break
			}
		}
		if !aligned {
			agg.Series[si] = s0
			agg.Notes = append(agg.Notes, fmt.Sprintf(
				"series %q: shape differs across reps; showing seed %d only", s0.Name, baseSeed))
			continue
		}
		sameX, sameY := true, true
		for _, r := range reps[1:] {
			rs := r.Series[si]
			for i := range s0.X {
				if rs.X[i] != s0.X[i] {
					sameX = false
				}
			}
			for i := range s0.Y {
				if rs.Y[i] != s0.Y[i] {
					sameY = false
				}
			}
		}
		switch {
		case sameX:
			ns := Series{Name: s0.Name, X: append([]float64(nil), s0.X...)}
			ns.Y = make([]float64, len(s0.Y))
			ns.Err = make([]float64, len(s0.Y))
			for i := range s0.Y {
				d := stats.NewDist(len(reps))
				var sum stats.Summary
				for _, r := range reps {
					d.Add(r.Series[si].Y[i])
					sum.Add(r.Series[si].Y[i])
				}
				ns.Y[i] = d.Median()
				ns.Err[i] = sum.Std()
			}
			agg.Series[si] = ns
		case sameY:
			ns := Series{Name: s0.Name,
				Y:   append([]float64(nil), s0.Y...),
				Err: append([]float64(nil), s0.Err...)}
			ns.X = make([]float64, len(s0.X))
			for i := range s0.X {
				d := stats.NewDist(len(reps))
				for _, r := range reps {
					d.Add(r.Series[si].X[i])
				}
				ns.X[i] = d.Median()
			}
			agg.Series[si] = ns
		default:
			agg.Series[si] = s0
			agg.Notes = append(agg.Notes, fmt.Sprintf(
				"series %q: X and Y both vary across reps; showing seed %d only", s0.Name, baseSeed))
		}
	}
	agg.Notes = append(agg.Notes, fmt.Sprintf(
		"aggregated over %d reps (seeds %d..%d): per-point median, err = std across reps",
		len(reps), baseSeed, baseSeed+int64(len(reps)-1)))
	return agg
}
