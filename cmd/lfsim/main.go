// Command lfsim runs one simulation, the quick-look companion to the
// experiments in cmd/lfbench. Each run kind is a subcommand that takes only
// the flags its runner reads; -h after the kind lists them.
//
//	lfsim cc -cc lf-aurora -flows 4 -congested  # a dumbbell under one scheme (paper §5.1)
//	lfsim fleet -members 8 -duration 2s -chaos  # one fleet controller, N datapaths (DESIGN.md §4f, §4i)
//	lfsim scenario                              # list the actor-scenario corpus (DESIGN.md §4j)
//	lfsim scenario -check rpc-incast            # run one; exit 1 if its envelope fails
//
// cc and fleet share -duration, -seed, -reps, -parallel and the telemetry
// exports: -trace (Chrome trace-event JSON for Perfetto), -trace-jsonl,
// -metrics-out (Prometheus text), -flight-out (every metric on a 1 ms
// virtual-time tick) and -listen (serves them on /metrics, /debug/trace and
// /debug/flight after the run, until SIGINT or SIGTERM). A flag the run kind
// does not take, or a stray argument, exits 2; a value no run can use exits 1
// naming the flag. Neither prints on stdout.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/experiments"
	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/scenario"
	"github.com/liteflow-sim/liteflow/internal/stats"
)

// schemes lists the rig.Schemes keys -cc accepts.
const schemes = "bbr | cubic | lf-aurora | lf-mocc | lf-dummy | ccp-aurora | ccp-mocc"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage is a malformed command line, already explained on stderr.
var errUsage = errors.New("usage")

// command is a parsed and checked invocation, ready to run.
type command func(stdout, stderr io.Writer) error

// run parses args and runs the command. It returns the exit code: 2 for a
// malformed command line, 1 for a value no run can use or a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	cmd, err := parse(args, stderr)
	if err == nil {
		err = cmd(stdout, stderr)
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintln(stderr, "lfsim:", err)
	return 1
}

// parse reads args[0] as the run kind and the rest with that kind's flag
// set. It runs nothing, so a command line can be checked on its own.
func parse(args []string, stderr io.Writer) (command, error) {
	kinds := map[string]func(*flag.FlagSet, []string) (command, error){
		"cc": parseCC, "fleet": parseFleet, "scenario": parseScenario,
	}
	if len(args) == 0 || kinds[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: lfsim cc|fleet|scenario [flags] (lfsim KIND -h lists a kind's flags)")
		return nil, errUsage
	}
	fs := flag.NewFlagSet("lfsim "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	return kinds[args[0]](fs, args[1:])
}

// parseArgs parses args into fs and refuses more than max positional
// arguments, as fs itself refuses an unknown flag.
func parseArgs(fs *flag.FlagSet, args []string, max int) error {
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() > max {
		fmt.Fprintf(fs.Output(), "argument provided but not expected: %q (-h lists the flags)\n", fs.Arg(max))
		return errUsage
	}
	return nil
}

// runFlags are the flags cc and fleet share: the measured duration, the base
// seed, repetitions and one run's telemetry exports.
type runFlags struct {
	duration       time.Duration
	seed           int64
	reps, parallel int
	ex             obs.Exports
}

// register defines the shared flags on fs; durationHelp says what the run
// kind measures.
func (f *runFlags) register(fs *flag.FlagSet, durationHelp string) {
	fs.DurationVar(&f.duration, "duration", 5*time.Second, durationHelp)
	fs.Int64Var(&f.seed, "seed", 2, "base random seed; rep r runs at seed+r")
	fs.IntVar(&f.reps, "reps", 1, "repetitions of the run; reports median/p95 aggregate goodput")
	fs.IntVar(&f.parallel, "parallel", 1, "worker-pool size for -reps (each rep owns a private engine)")
	fs.StringVar(&f.ex.Trace, "trace", "", "write Chrome trace-event JSON to this file")
	fs.StringVar(&f.ex.TraceJSONL, "trace-jsonl", "", "write trace events as JSON lines to this file")
	fs.StringVar(&f.ex.Metrics, "metrics-out", "", "write Prometheus text metrics to this file")
	fs.StringVar(&f.ex.Flight, "flight-out", "", "write a flight recording (every metric sampled each millisecond of virtual time) as JSON lines to this file; on the cc dumbbell a sample sees every partition at a time within one lookahead of the tick")
	fs.StringVar(&f.ex.Listen, "listen", "", "serve /metrics, /debug/trace and /debug/flight on this address after the run (e.g. :9090)")
}

// parse parses a cc or fleet command line, which takes no arguments, and
// checks the shared flags' values.
func (f *runFlags) parse(fs *flag.FlagSet, args []string) error {
	if err := parseArgs(fs, args, 0); err != nil {
		return err
	}
	switch {
	case f.duration <= 0:
		return fmt.Errorf("-duration %v: want a positive measured duration (rates divide by it)", f.duration)
	case f.reps > 1 && f.ex.Any():
		return fmt.Errorf("-trace/-trace-jsonl/-metrics-out/-flight-out/-listen export a single run's telemetry; use -reps 1")
	}
	return nil
}

// command runs once f.reps times, rep r at seed+r on a private engine,
// optionally across a bounded worker pool; per-rep reports print in rep
// order followed by a median/p95 summary of the returned aggregates in unit.
// Wall-clock timing goes to stderr.
func (f *runFlags) command(unit string, once func(rep int, stdout, stderr io.Writer) (float64, error)) command {
	return func(stdout, stderr io.Writer) error {
		reps := f.reps
		if reps <= 1 {
			_, err := once(0, stdout, stderr)
			return err
		}

		type repOut struct {
			stdout, stderr bytes.Buffer
			agg            float64
			wall           time.Duration
			err            error
		}
		outs := make([]repOut, reps)
		experiments.Pool(reps, f.parallel, func(r int) {
			start := time.Now()
			outs[r].agg, outs[r].err = once(r, &outs[r].stdout, &outs[r].stderr)
			outs[r].wall = time.Since(start)
		})

		agg := stats.NewDist(reps)
		wall := stats.NewDist(reps)
		for r := range outs {
			fmt.Fprintf(stdout, "--- rep %d (seed %d) ---\n", r, f.seed+int64(r))
			io.Copy(stdout, &outs[r].stdout)
			io.Copy(stderr, &outs[r].stderr)
			if outs[r].err != nil {
				return fmt.Errorf("rep %d: %w", r, outs[r].err)
			}
			agg.Add(outs[r].agg)
			wall.Add(float64(outs[r].wall))
		}
		fmt.Fprintf(stdout, "reps summary: aggregate goodput median %.3f %s, p95 %.3f %s over %d reps (seeds %d..%d)\n",
			agg.Median(), unit, agg.Quantile(0.95), unit, reps, f.seed, f.seed+int64(reps-1))
		fmt.Fprintf(stderr, "(wall: median %.1fs, p95 %.1fs)\n",
			time.Duration(wall.Median()).Seconds(), time.Duration(wall.Quantile(0.95)).Seconds())
		return nil
	}
}

// ccRun is one lfsim cc command line.
type ccRun struct {
	runFlags
	scheme, faultProfile     string
	flows, pretrain          int
	warmup, interval, batchT time.Duration
	congested, adapt         bool
	faultSeed                int64
}

func parseCC(fs *flag.FlagSet, args []string) (command, error) {
	var o ccRun
	fs.StringVar(&o.scheme, "cc", "bbr", "scheme: "+schemes)
	fs.IntVar(&o.flows, "flows", 1, "concurrent flows")
	fs.DurationVar(&o.warmup, "warmup", 2*time.Second, "warmup before measurement starts")
	fs.DurationVar(&o.interval, "interval", 10*time.Millisecond, "CCP communication interval (0 = per-ACK)")
	fs.BoolVar(&o.congested, "congested", false, "1 Gbps bottleneck + 0.1 Gbps UDP background")
	fs.BoolVar(&o.adapt, "adapt", false, "lf-* schemes: wire the userspace slow path (netlink batching + service)")
	fs.DurationVar(&o.batchT, "batch-interval", 100*time.Millisecond, "slow-path batch delivery interval T (with -adapt)")
	fs.IntVar(&o.pretrain, "pretrain", 400, "policy pretraining iterations for NN schemes")
	fs.StringVar(&o.faultProfile, "fault-profile", "none", "fault injection profile: none | netlink | slowpath | chaos")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for the deterministic fault injector; rep r runs at fault-seed+r")
	o.register(fs, "measured duration (after warmup)")
	if err := o.parse(fs, args); err != nil {
		return nil, err
	}
	sch, ok := rig.Schemes[o.scheme]
	_, known := fault.ByName(o.faultProfile)
	switch {
	case !known:
		return nil, fmt.Errorf("-fault-profile %q: want none | netlink | slowpath | chaos", o.faultProfile)
	case o.warmup < 0:
		return nil, fmt.Errorf("-warmup %v: want 0 or more", o.warmup)
	case o.flows < 1:
		return nil, fmt.Errorf("-flows %d: want at least one flow", o.flows)
	case !ok:
		return nil, fmt.Errorf("-cc %q: want %s", o.scheme, schemes)
	case o.adapt && !sch.LF:
		return nil, fmt.Errorf("-adapt wires the LiteFlow slow path, which -cc %q does not have: want an lf-* scheme", o.scheme)
	}
	return o.command("Gbps", o.run), nil
}

// staticUser is the slow-path user for -adapt runs: its network answers
// freezing and evaluation, and it never retunes the model, so the service's
// convergence gate opens immediately and every necessity check exercises the
// full netlink round trip (then skips the install because fidelity loss is
// zero).
type staticUser struct{ *nn.Network }

func (staticUser) Stability() float64  { return 1 }
func (staticUser) Adapt([]core.Sample) {}

// run executes one dumbbell run. rep offsets the pretraining and fault
// seeds; the returned goodput is the aggregate across flows in Gbps.
func (o *ccRun) run(rep int, stdout, stderr io.Writer) (float64, error) {
	tel := obs.NewSession(o.ex)
	sch := rig.Schemes[o.scheme]
	prof, _ := fault.ByName(o.faultProfile) // parseCC refused unknown names

	do := rig.DumbbellOpts{
		FreePath: !o.congested, Faults: prof, FaultSeed: o.faultSeed + int64(rep),
		Scope: tel.Scope(), Flight: tel.Flight,
	}
	if o.congested {
		do.Background = rig.ConstantUDP
	}
	d := rig.NewDumbbell(do)

	args := rig.SchemeArgs{Interval: netsim.Time(o.interval.Nanoseconds()), Flows: o.flows}
	if sch.Model != "" {
		args.Net = cc.NewAuroraNet(1)
		if sch.Model == "mocc" {
			args.Net = cc.NewMOCCNet(1)
		}
		fmt.Fprintln(stderr, "pretraining policy network…")
		cc.Pretrain(args.Net, o.pretrain, o.seed+int64(rep))
	}
	if sch.LF {
		cfg := core.DefaultConfig()
		cfg.FlowCacheTimeout = 0 // long-lived flows: entries stay pinned for the whole run
		if d.Faults != nil && o.adapt {
			// With faults on, arm the watchdog so a stalled slow path
			// degrades gracefully instead of serving a half-built
			// standby forever. Window = 3 batch intervals.
			cfg.WatchdogWindow = 3 * o.batchT.Nanoseconds()
		}
		dep := d.Deploy(cfg, rig.Build(args.Net, cfg.Quant, "model"))
		if o.adapt {
			dep.AttachSlowPath(d.Sender.CPU, staticUser{args.Net}, netsim.Time(o.batchT.Nanoseconds()), d.Faults)
		}
	}
	d.AddFlows(sch, args)

	d.Run(netsim.Time(o.warmup.Nanoseconds()), netsim.Time(o.duration.Nanoseconds()))

	secs := o.duration.Seconds()
	var agg float64
	for i, s := range d.Senders {
		g := float64(d.Delivered(i)*8) / secs / 1e9
		agg += g
		fmt.Fprintf(stdout, "flow %2d: %7.3f Gbps (rtx %d, timeouts %d)\n", i+1, g, s.Retransmits, s.Timeouts)
	}
	fmt.Fprintf(stdout, "aggregate: %.3f Gbps over %s\n", agg, o.scheme)
	fmt.Fprintf(stdout, "sender CPU: %s\n", d.Sender.CPU.Report())
	if d.Dep != nil {
		st := d.Dep.Core.Stats()
		fmt.Fprintf(stdout, "liteflow core: %d queries, %d cache hits, %d models\n",
			st.Queries, st.CacheHits, d.Dep.Core.Models())
		if d.Dep.Svc != nil {
			st := d.Dep.Svc.Stats()
			fmt.Fprintf(stdout, "liteflow service: %d batches, %d samples, %d fidelity checks, %d skipped, %d updates\n",
				st.Batches, st.Samples, st.FidelityChecks, st.SkippedByNecessity, st.Updates)
		}
	}
	if d.Faults != nil {
		fs := d.Faults.Stats()
		fmt.Fprintf(stdout, "faults injected: %d total (%d drops, %d corrupt, %d delays, %d reorders, %d build fails, %d outages, %d cpu spikes)\n",
			fs.Total(), fs.Drops, fs.Corrupts, fs.Delays, fs.Reorders, fs.BuildFails+fs.QuantFails, fs.Outages, fs.Spikes)
		if d.Dep != nil {
			st := d.Dep.Core.Stats()
			fmt.Fprintf(stdout, "degradation: %d degraded, %d recovered\n", st.Degraded, st.Recovered)
		}
	}
	return agg, tel.Finish("lfsim", stderr)
}

// fleetRun is one lfsim fleet command line.
type fleetRun struct {
	runFlags
	members, canary int
	chaos           bool
	workload        string
}

func parseFleet(fs *flag.FlagSet, args []string) (command, error) {
	var o fleetRun
	fs.IntVar(&o.members, "members", 8, "fleet members: kernel datapaths, one 4-core host each")
	fs.IntVar(&o.canary, "canary", 0, "stage each minted epoch on this many canary members and auto-rollback on a failed health verdict before the rest of the fleet sees it (0 = fan out everywhere at once), see DESIGN.md §4i")
	fs.BoolVar(&o.chaos, "chaos", false, "odd members suffer injected slow-path outages; the recovery tail must restore epoch parity")
	fs.StringVar(&o.workload, "workload", "", "shape member query cadence by this scenario's arrival process (name or JSON path; diurnal scenarios make fleet load breathe day/night)")
	o.register(fs, "drift-active window; a recovery tail of up to as long again follows")
	if err := o.parse(fs, args); err != nil {
		return nil, err
	}
	if o.canary < 0 || o.canary >= o.members {
		return nil, fmt.Errorf("-canary %d -members %d: want 0 ≤ canary < members (at least one member outside the canary cohort)", o.canary, o.members)
	}
	return o.command("queries/s", o.run), nil
}

// run executes the fleet distribution-plane scenario: one controller slow
// path serving the members' kernel datapaths, one host CPU each, under a
// drifting model that keeps minting snapshot versions. With -chaos, odd
// members go dark on a jittered schedule, installs park on the degraded
// cores, and the recovery tail must restore epoch parity. The returned
// aggregate is the fleet-wide model-query rate in queries/s.
func (o *fleetRun) run(rep int, stdout, stderr io.Writer) (float64, error) {
	tel := obs.NewSession(o.ex)
	var workload *scenario.Spec
	if o.workload != "" {
		var err error
		if workload, err = loadScenario(o.workload); err != nil {
			return 0, err
		}
	}
	r := experiments.RunFleetScenario(experiments.FleetScenarioOpts{
		Members:     o.members,
		Seed:        o.seed + int64(rep),
		Dur:         netsim.Time(o.duration.Nanoseconds()),
		Chaos:       o.chaos,
		Obs:         tel.Scope(),
		Flight:      tel.Flight,
		FlightEvery: netsim.Millisecond,
		CanaryCount: o.canary,
		Workload:    workload,
	})
	st := r.Stats
	fmt.Fprintf(stdout, "fleet: %d members, epoch %d, %d member installs (%d parked, %d abandoned, %d deferred)\n",
		r.Members, st.Epoch, st.MemberInstalls, st.InstallsParked, st.InstallsAbandoned, st.InstallsDeferred)
	fmt.Fprintf(stdout, "fleet slow path: %d aggregations, %d samples, %d fidelity checks, %d skipped, %d outage drops\n",
		st.Aggregations, st.Samples, st.FidelityChecks, st.SkippedByNecessity, st.OutageDrops)
	fmt.Fprintf(stdout, "fleet staleness: mean %.3f, peak %d, final %d; member epochs %v\n",
		r.MeanStale, r.PeakStale, st.StaleMembers, r.Epochs)
	if o.canary > 0 {
		fmt.Fprintf(stdout, "fleet canary: released epoch %d, %d passes, %d fails, %d rollbacks, blacklist %v\n",
			st.ReleasedEpoch, st.CanaryPasses, st.CanaryFails, st.Rollbacks, r.Blacklisted)
	}
	fmt.Fprintf(stdout, "aggregate: %.0f queries/s across %d members\n", r.GoodputQPS, r.Members)
	return r.GoodputQPS, tel.Finish("lfsim", stderr)
}
