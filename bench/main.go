// Command bench is the repository's benchmark: five workloads that load
// different layers of the simulator and of LiteFlow's fast and slow paths,
// end-to-end metrics from an untraced run, per-layer metrics from a traced
// run that measures from outside the program, and a comparison of two runs.
// See README.md in this directory.
//
//	go run ./bench -workload all -seed 1 -out run.json -trace-out trace.json
//	go run ./bench -compare base.json run.json
//	go run ./bench --workload query-mix --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// report is the JSON document -out writes and -compare reads.
type report struct {
	Seed      int64             `json:"seed"`
	Quick     bool              `json:"quick"`
	Reps      int               `json:"reps"`
	Seconds   float64           `json:"seconds"`
	Host      hostInfo          `json:"host"`
	NoisyHost bool              `json:"noisy_host"`
	Workloads []*workloadResult `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload `name`, or all")
		seed     = fs.Int64("seed", 1, "input seed; every rep of a run uses it")
		reps     = fs.Int("reps", 5, "timed reps per workload (rounds, in the traced run)")
		seconds  = fs.Float64("seconds", 0, "run whole reps for this many seconds instead of -reps")
		trace    = fs.Int("trace", -1, "0: untraced run only, 1: traced run only, -1: both")
		quick    = fs.Bool("quick", false, "tiny sizes, for tests")
		outPath  = fs.String("out", "", "write the results as JSON to `file`")
		tracePth = fs.String("trace-out", "", "write the traced run's spans as Chrome trace JSON to `file`")
		compare  = fs.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var selected []*workloadDef
	if *name == "all" {
		selected = workloads
	} else if w := workloadByName(*name); w != nil {
		selected = []*workloadDef{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *trace < -1 || *trace > 1 || *reps < 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: -trace is -1, 0 or 1; -reps at least 1; -seconds not negative")
		return 2
	}

	cfg := runCfg{seed: *seed, quick: *quick, reps: *reps, seconds: time.Duration(*seconds * float64(time.Second))}
	rep := &report{Seed: cfg.seed, Quick: cfg.quick, Reps: cfg.reps, Seconds: *seconds, Host: readHost()}
	if rep.Host.noisy(rep.Host.LoadStart) {
		fmt.Fprintf(stderr, "bench: warning: load average %.2f exceeds %d CPUs; timings are unreliable\n",
			rep.Host.LoadStart, rep.Host.NProc)
	}
	byName := map[string]*workloadResult{}
	if *trace != 1 {
		probe, err := newSpeedProbe(cfg.quick)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		cfg.probe = probe
		for _, w := range selected {
			res, err := runPlain(w, cfg)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			byName[w.name] = res
			rep.Workloads = append(rep.Workloads, res)
		}
	}
	var events []chromeEvent
	if *trace != 0 {
		for i, w := range selected {
			res, err := runTraced(w, cfg)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			events = append(events, res.trace.chromeEvents(i, w.name)...)
			if base := byName[w.name]; base != nil {
				base.merge(res)
			} else {
				rep.Workloads = append(rep.Workloads, res)
			}
		}
	}
	rep.Host.LoadEnd = loadAverage()
	rep.NoisyHost = rep.Host.noisy(rep.Host.LoadStart) || rep.Host.noisy(rep.Host.LoadEnd)

	printReport(stdout, rep)
	if *outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *tracePth != "" && *trace != 0 {
		if err := writeChromeTrace(*tracePth, events); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	failed := 0
	for _, w := range rep.Workloads {
		failed += w.Failed
	}
	if len(selected) == 1 && *trace >= 0 {
		line, err := resultLine(rep.Workloads[0], *trace == 1)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// merge adds the traced run's findings to the untraced run's result. The two
// runs must have simulated the same thing.
func (r *workloadResult) merge(t *workloadResult) {
	r.PerLayer, r.Premise = t.PerLayer, t.Premise
	r.Attempted += t.Attempted + 1
	r.Failed += t.Failed
	r.FailedChecks = append(r.FailedChecks, t.FailedChecks...)
	if t.SimDigest != r.SimDigest {
		r.Failed++
		r.FailedChecks = append(r.FailedChecks,
			fmt.Sprintf("traced run: sim_digest %s differs from the untraced run's %s", t.SimDigest, r.SimDigest))
	}
}

func printReport(w io.Writer, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "seed %d  reps %d  seconds %g  quick %v\n", rep.Seed, rep.Reps, rep.Seconds, rep.Quick)
	fmt.Fprintf(w, "host: %s, %d CPUs, GOMAXPROCS %d, %s, commit %s, load %.2f -> %.2f, noisy_host %v\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.LoadStart, h.LoadEnd, rep.NoisyHost)
	for _, r := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s  (unit: %s)\n", r.Name, r.Unit)
		fmt.Fprintf(w, "   sim_digest %s  checks %d/%d ok\n", r.SimDigest, r.Attempted-r.Failed, r.Attempted)
		for _, f := range r.FailedChecks {
			fmt.Fprintf(w, "   FAILED %s\n", f)
		}
		if r.EndToEnd != nil {
			fmt.Fprintln(w, "   end to end (untraced run; host time at reference speed)")
			printMetric(w, "(host speed)", r.HostSpeed)
			for _, d := range e2eDefs {
				if m, ok := r.EndToEnd[d.name]; ok {
					printMetric(w, d.name, m)
				}
			}
		}
		if r.PerLayer != nil {
			fmt.Fprintln(w, "   per layer (traced run; *_ms are inclusive unless named self)")
			for _, d := range layerDefs {
				printMetric(w, d.name, r.PerLayer[d.name])
			}
		}
		if p := r.Premise; p != nil {
			verdict := "ok"
			if p.Share < p.Want {
				verdict = "NOT MET"
			}
			fmt.Fprintf(w, "   premise: %s = %.1f%% of run.wall_s, want >= %.0f%%: %s\n",
				p.Layers, p.Share*100, p.Want*100, verdict)
		}
	}
}

func printMetric(w io.Writer, name string, m metric) {
	fmt.Fprintf(w, "     %-30s %16.6g %-8s", name, m.Value, m.Unit)
	if m.N > 1 {
		fmt.Fprintf(w, " [min %.6g max %.6g n %d]", m.Min, m.Max, m.N)
	}
	fmt.Fprintln(w)
}

// resultLine is the one-line JSON a harness reads from the end of the
// output: the metrics BENCHMARK.json lists for this kind of run.
func resultLine(r *workloadResult, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range layerDefs {
			metrics[d.name] = value{r.PerLayer[d.name].Value, d.unit}
		}
	} else {
		for _, d := range e2eDefs {
			if d.contract {
				metrics[d.name] = value{r.EndToEnd[d.name].Value, d.unit}
			}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	return string(line), err
}
