// Command lfbench runs the paper-reproduction experiments and prints their
// tables/series. Each experiment corresponds to a table or figure of the
// LiteFlow paper (see DESIGN.md §3 for the index).
//
// Usage:
//
//	lfbench -list                 # enumerate experiments
//	lfbench -exp fig11            # run one experiment at full scale
//	lfbench -exp fig11 -scale 0.2 # faster, smaller run
//	lfbench -all                  # regenerate everything (EXPERIMENTS.md data)
//	lfbench -all -parallel 4      # same bytes, bounded worker pool
//
// Reports and telemetry are deterministic: for a fixed -seed/-scale the
// stdout bytes and -trace/-metrics-out exports are identical regardless of
// -parallel, and the stdout bytes do not depend on whether
// -trace/-metrics-out/-flight-out is given either. Wall-clock timing goes to
// stderr so comparable output stays comparable. To repeat a run across
// seeds, use lfsim cc|fleet -reps.
//
// Performance tracking lives in the repo's benchmark, not here: see
// bench/README.md (go run ./bench, go run ./bench -compare).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/liteflow-sim/liteflow/internal/experiments"
	"github.com/liteflow-sim/liteflow/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "", "experiment ID to run (see -list)")
		all        = fs.Bool("all", false, "run every experiment in paper order")
		list       = fs.Bool("list", false, "list available experiments")
		scale      = fs.Float64("scale", 1.0, "duration/size scale factor (1.0 = paper shape)")
		seed       = fs.Int64("seed", 1, "random seed")
		parallel   = fs.Int("parallel", 1, "worker-pool size for independent experiments")
		trace      = fs.String("trace", "", "write Chrome trace-event JSON to this file")
		metricsOut = fs.String("metrics-out", "", "write Prometheus text metrics to this file")
		flightOut  = fs.String("flight-out", "", "write the flight recording as JSON lines to this file (recorded by experiments that drive a flight recorder, e.g. the fleet scenarios)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *list && (*all || *exp != "") || *all && *exp != "" {
		fmt.Fprintln(stderr, "lfbench: give one of -list, -all and -exp, and no arguments")
		return 2
	}
	if !(*scale > 0) {
		fmt.Fprintf(stderr, "lfbench: -scale %g: want a positive scale factor\n", *scale)
		return 1
	}

	tel := obs.NewSession(obs.Exports{Trace: *trace, Metrics: *metricsOut, Flight: *flightOut})
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Obs: tel.Scope(), Flight: tel.Flight}

	var runners []experiments.Runner
	switch {
	case *list:
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", r.ID, r.Title)
		}
		return 0
	case *all:
		runners = experiments.All()
	case *exp != "":
		r, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(stderr, "lfbench: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		runners = []experiments.Runner{r}
	default:
		fs.Usage()
		return 2
	}

	for _, sr := range experiments.RunSuite(runners, cfg, *parallel) {
		fmt.Fprintln(stdout, sr.Result.String())
		// Wall-clock is host-dependent; keep it off stdout so report bytes
		// compare across -parallel settings and machines.
		fmt.Fprintf(stderr, "(%s completed in %.1fs)\n", sr.Runner.ID, sr.Wall.Seconds())
	}

	if err := tel.Finish("lfbench", stderr); err != nil {
		fmt.Fprintln(stderr, "lfbench:", err)
		return 1
	}
	return 0
}
