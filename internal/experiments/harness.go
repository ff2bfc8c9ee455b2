package experiments

import (
	"sync"
	"time"

	"github.com/liteflow-sim/liteflow/internal/obs"
)

// This file is the parallel experiment harness. Experiments are pure
// Config→Result functions, each constructing its own private netsim.Engine,
// so independent experiments can run on separate goroutines with no shared
// simulator state. Determinism is preserved by construction:
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

// SuiteResult is one experiment's outcome.
type SuiteResult struct {
	Runner Runner
	Result Result
	// Wall is the host wall-clock duration of the run, the one
	// non-deterministic output; callers must not mix it into comparable
	// report bytes.
	Wall time.Duration
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

// RunSuite runs every runner once over a pool of parallel workers and
// returns one SuiteResult per runner, in runner order. Each job records into
// a private child of cfg.Obs and cfg.Flight, and the harness joins the
// children in job order once all jobs are done.
func RunSuite(runners []Runner, cfg Config, parallel int) []SuiteResult {
	results := make([]SuiteResult, len(runners))
	joins := make([]func(), len(runners))
	Pool(len(runners), parallel, func(j int) {
		c := cfg
		c.Obs, c.Flight, joins[j] = obs.Fork(cfg.Obs, cfg.Flight)
		start := time.Now()
		results[j] = SuiteResult{Runner: runners[j], Result: runners[j].Run(c)}
		results[j].Wall = time.Since(start)
	})
	// Join per-job telemetry in job order — deterministic regardless of
	// which worker finished when.
	for _, join := range joins {
		join()
	}
	return results
}
