// Command lfsim runs ad-hoc congestion-control scenarios on the simulated
// testbed: one dumbbell, N flows under a chosen scheme, with goodput,
// retransmission and CPU reports. It is the quick-look companion to the
// structured experiments in cmd/lfbench.
//
// Example:
//
//	lfsim -cc lf-aurora -flows 4 -duration 5s -congested
//	lfsim -cc ccp-aurora -interval 10ms -flows 10
//	lfsim -cc bbr -flows 10
//
// Telemetry: -trace writes a Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing; snapshot versions render as per-pid span trees),
// -metrics-out writes Prometheus text exposition, -flight-out records every
// metric on a virtual-time tick as JSON lines, and -listen serves them live
// on /metrics, /debug/trace and /debug/flight after the run.
//
//	lfsim -cc lf-aurora -adapt -congested -trace trace.json -metrics-out metrics.prom
//
// -fleet N switches to the snapshot distribution-plane scenario: one fleet
// controller serving N kernel datapaths on a spine–leaf fabric under a
// drifting model. A fault profile other than none enables the chaos variant
// (injected slow-path outages on odd members).
//
//	lfsim -fleet 8 -duration 2s -fault-profile chaos
//
// -scenario runs a named actor scenario from the embedded corpus (or a JSON
// file): persistent per-user session state machines — web, video-ABR, RPC
// fan-out, bulk — on a spine–leaf fabric, with an acceptance envelope that
// -scenario-check turns into an exit code. See DESIGN.md §4j.
//
//	lfsim -scenario-list
//	lfsim -scenario rpc-incast -scenario-check
//	lfsim -scenario web-baseline -sim-domains 4
package main

import (
	"bytes"
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
	"github.com/liteflow-sim/liteflow/internal/opt"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/scenario"
	"github.com/liteflow-sim/liteflow/internal/stats"
)

// options carries every flag so runs are reproducible from tests.
type options struct {
	scheme    string
	fleet     int
	canary    int
	canaryWin time.Duration
	flows     int
	duration  time.Duration
	warmup    time.Duration
	interval  time.Duration
	congested bool
	adapt     bool
	batchT    time.Duration
	pretrain  int
	seed      int64
	reps      int
	parallel  int

	simDomains int

	scenario      string
	scenarioList  bool
	scenarioCheck bool
	scenarioScale float64
	fleetScenario string

	faultProfile string
	faultSeed    int64

	ex obs.Exports // -trace, -trace-jsonl, -metrics-out, -flight-out, -listen
}

// flightEvery is the virtual-time interval between flight-recorder samples
// (with -flight-out or -listen).
const flightEvery = netsim.Millisecond

func main() {
	var o options
	flag.StringVar(&o.scheme, "cc", "bbr", "scheme: bbr | cubic | lf-aurora | lf-mocc | lf-dummy | ccp-aurora | ccp-mocc")
	flag.IntVar(&o.fleet, "fleet", 0, "run the fleet distribution-plane scenario with this many members instead of a CC scenario (0 = off); a -fault-profile other than none selects the chaos variant")
	flag.IntVar(&o.canary, "canary", 0, "with -fleet: stage each minted epoch on this many canary members and auto-rollback on a failed health verdict before the rest of the fleet sees it (0 = fan out everywhere at once), see DESIGN.md §4i")
	flag.DurationVar(&o.canaryWin, "canary-window", 0, "with -canary: virtual-time observation window before the canary verdict (0 = four slow-path aggregation intervals)")
	flag.IntVar(&o.flows, "flows", 1, "concurrent flows")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "measured duration (after warmup)")
	flag.DurationVar(&o.warmup, "warmup", 2*time.Second, "warmup before measurement starts")
	flag.DurationVar(&o.interval, "interval", 10*time.Millisecond, "CCP communication interval (0 = per-ACK)")
	flag.BoolVar(&o.congested, "congested", false, "1 Gbps bottleneck + 0.1 Gbps UDP background")
	flag.BoolVar(&o.adapt, "adapt", false, "lf-* schemes: wire the userspace slow path (netlink batching + service)")
	flag.DurationVar(&o.batchT, "batch-interval", 100*time.Millisecond, "slow-path batch delivery interval T (with -adapt)")
	flag.IntVar(&o.pretrain, "pretrain", 400, "policy pretraining iterations for NN schemes")
	flag.Int64Var(&o.seed, "seed", 2, "base random seed; rep r runs at seed+r (and fault-seed+r)")
	flag.IntVar(&o.reps, "reps", 1, "repetitions of the scenario; reports median/p95 aggregate goodput")
	flag.IntVar(&o.parallel, "parallel", 1, "worker-pool size for -reps (each rep owns a private engine)")
	flag.IntVar(&o.simDomains, "sim-domains", 0, "engine of the CC scenario: 0 = classic engine; ≥ 1 = partitioned engine, one tie-break family whatever the number (reports are byte-identical for every value ≥ 1, and differ from 0's where same-time events tie), see DESIGN.md §4h")
	flag.StringVar(&o.scenario, "scenario", "", "run an actor scenario instead of a CC scenario: an embedded corpus name (see -scenario-list) or a path to a scenario JSON file; honors -sim-domains, see DESIGN.md §4j")
	flag.BoolVar(&o.scenarioList, "scenario-list", false, "list the embedded scenario corpus and exit")
	flag.BoolVar(&o.scenarioCheck, "scenario-check", false, "with -scenario: exit non-zero if the run violates the scenario's acceptance envelope")
	flag.Float64Var(&o.scenarioScale, "scenario-scale", 1, "with -scenario: scale the session population (envelopes only apply at 1)")
	flag.StringVar(&o.fleetScenario, "fleet-scenario", "", "with -fleet: shape member query cadence by this scenario's arrival process (name or JSON path; diurnal scenarios make fleet load breathe day/night)")
	flag.StringVar(&o.faultProfile, "fault-profile", "none", "fault injection profile: none | netlink | slowpath | chaos")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for the deterministic fault injector")
	flag.StringVar(&o.ex.Trace, "trace", "", "write Chrome trace-event JSON to this file")
	flag.StringVar(&o.ex.TraceJSONL, "trace-jsonl", "", "write trace events as JSON lines to this file")
	flag.StringVar(&o.ex.Metrics, "metrics-out", "", "write Prometheus text metrics to this file")
	flag.StringVar(&o.ex.Flight, "flight-out", "", "write a flight recording (every metric sampled each millisecond of virtual time) as JSON lines to this file; with -sim-domains ≥ 1 a sample sees every partition at a time within one lookahead of the tick")
	flag.StringVar(&o.ex.Listen, "listen", "", "serve /metrics and /debug/trace on this address after the run (e.g. :9090)")
	flag.Parse()

	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lfsim:", err)
		os.Exit(1)
	}
}

// staticUser is the slow-path user for -adapt runs: it never retunes the
// model, so the service's convergence gate opens immediately and every
// necessity check exercises the full netlink round trip (then skips the
// install because fidelity loss is zero).
type staticUser struct{ net *nn.Network }

func (u staticUser) Freeze() *nn.Network          { return u.net }
func (u staticUser) Stability() float64           { return 1 }
func (u staticUser) Infer(in []float64) []float64 { return u.net.Infer(in) }
func (u staticUser) Adapt([]core.Sample)          {}

// OutputSize and InferBatch make staticUser a core.BatchEvaluator.
func (u staticUser) OutputSize() int                         { return u.net.OutputSize() }
func (u staticUser) InferBatch(xs [][]float64, ys []float64) { u.net.InferBatch(xs, ys) }

// validate rejects flag combinations that would otherwise be silently
// ignored, and run lengths and flow counts no report can divide by, naming
// the offending flag.
func (o options) validate() error {
	if o.scenario != "" {
		// The scenario runner has no telemetry scope, no fault injector, no
		// repetitions and no fleet plane.
		for _, f := range []struct {
			flag string
			set  bool
		}{
			{"-trace", o.ex.Trace != ""},
			{"-trace-jsonl", o.ex.TraceJSONL != ""},
			{"-metrics-out", o.ex.Metrics != ""},
			{"-flight-out", o.ex.Flight != ""},
			{"-listen", o.ex.Listen != ""},
			{"-reps", o.reps > 1},
			{"-fault-profile", o.faultProfile != "" && o.faultProfile != "none"},
			{"-fleet", o.fleet > 0},
		} {
			if f.set {
				return fmt.Errorf("%s does not apply to -scenario runs (the scenario runner exports no telemetry, injects no faults, runs once and has no fleet plane)", f.flag)
			}
		}
	}
	if o.scenarioCheck && o.scenario == "" {
		return fmt.Errorf("-scenario-check requires -scenario (it enforces that scenario's acceptance envelope)")
	}
	if o.fleetScenario != "" && o.fleet <= 0 {
		return fmt.Errorf("-fleet-scenario requires -fleet (it shapes fleet member query cadence)")
	}
	if o.canaryWin != 0 && o.canary <= 0 {
		return fmt.Errorf("-canary-window requires -canary (it is the canary verdict's observation window)")
	}
	if o.canary > 0 && o.fleet <= 0 {
		return fmt.Errorf("-canary requires -fleet (staged rollouts are a distribution-plane feature)")
	}
	if o.fleet > 0 && o.canary >= o.fleet {
		return fmt.Errorf("-canary %d must leave at least one non-canary member (-fleet %d)", o.canary, o.fleet)
	}
	if o.fleet > 0 && o.simDomains >= 1 {
		return fmt.Errorf("-sim-domains does not apply to -fleet scenarios (the distribution plane schedules across members and runs on the classic engine)")
	}
	if o.simDomains < 0 {
		return fmt.Errorf("-sim-domains %d: want 0 (classic engine) or ≥ 1 (partitioned engine)", o.simDomains)
	}
	if o.reps > 1 && o.ex.Any() {
		return fmt.Errorf("-trace/-trace-jsonl/-metrics-out/-flight-out/-listen export a single run's telemetry; use -reps 1")
	}
	if o.scenario == "" && o.duration <= 0 {
		return fmt.Errorf("-duration %v: want a positive measured duration (rates divide by it)", o.duration)
	}
	if o.scenario == "" && o.warmup < 0 {
		return fmt.Errorf("-warmup %v: want 0 or more", o.warmup)
	}
	if o.scenario == "" && o.fleet <= 0 && o.flows < 1 {
		return fmt.Errorf("-flows %d: want at least one flow", o.flows)
	}
	return nil
}

// run dispatches between the single-run path and the multi-rep harness. Rep
// r re-runs the identical scenario with seed+r (and fault-seed+r), each rep
// on a private engine, optionally across a bounded worker pool; per-rep
// reports print in rep order followed by a median/p95 aggregate-goodput
// summary. Wall-clock timing goes to stderr.
func run(o options, stdout, stderr io.Writer) error {
	if o.scenarioList {
		return listScenarios(stdout)
	}
	if err := o.validate(); err != nil {
		return err
	}
	if o.scenario != "" {
		return runScenario(o, stdout)
	}
	reps := o.reps
	if reps < 1 {
		reps = 1
	}
	if reps == 1 {
		_, err := runOnce(o, 0, stdout, stderr)
		return err
	}

	type repOut struct {
		stdout, stderr bytes.Buffer
		goodput        float64
		wall           time.Duration
		err            error
	}
	outs := make([]repOut, reps)
	experiments.Pool(reps, o.parallel, func(r int) {
		start := time.Now()
		outs[r].goodput, outs[r].err = runOnce(o, r, &outs[r].stdout, &outs[r].stderr)
		outs[r].wall = time.Since(start)
	})

	goodput := stats.NewDist(reps)
	wall := stats.NewDist(reps)
	for r := range outs {
		fmt.Fprintf(stdout, "--- rep %d (seed %d) ---\n", r, o.seed+int64(r))
		io.Copy(stdout, &outs[r].stdout)
		io.Copy(stderr, &outs[r].stderr)
		if outs[r].err != nil {
			return fmt.Errorf("rep %d: %w", r, outs[r].err)
		}
		goodput.Add(outs[r].goodput)
		wall.Add(float64(outs[r].wall))
	}
	unit := "Gbps"
	if o.fleet > 0 {
		unit = "queries/s" // fleet runs report model-query throughput
	}
	fmt.Fprintf(stdout, "reps summary: aggregate goodput median %.3f %s, p95 %.3f %s over %d reps (seeds %d..%d)\n",
		goodput.Median(), unit, goodput.Quantile(0.95), unit, reps, o.seed, o.seed+int64(reps-1))
	fmt.Fprintf(stderr, "(wall: median %.1fs, p95 %.1fs)\n",
		time.Duration(wall.Median()).Seconds(), time.Duration(wall.Quantile(0.95)).Seconds())
	return nil
}

// runOnce executes one scenario instance. rep offsets the pretraining and
// fault seeds; the returned goodput is the aggregate across flows in Gbps.
func runOnce(o options, rep int, stdout, stderr io.Writer) (float64, error) {
	tel := obs.NewSession(o.ex)
	prof, ok := fault.ByName(o.faultProfile)
	if !ok {
		return 0, fmt.Errorf("unknown fault profile %q (want none|netlink|slowpath|chaos)", o.faultProfile)
	}
	if o.fleet > 0 {
		return runFleet(o, rep, prof.Active(), tel, stdout, stderr)
	}
	sch, ok := rig.Schemes[o.scheme]
	if !ok {
		return 0, fmt.Errorf("unknown scheme %q", o.scheme)
	}
	if o.adapt && !sch.LF {
		return 0, fmt.Errorf("-adapt requires an lf-* scheme, got %q", o.scheme)
	}

	do := rig.DumbbellOpts{
		Domains: o.simDomains, FreePath: !o.congested,
		Faults: prof, FaultSeed: o.faultSeed + int64(rep),
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
		var coreOpts []opt.Option
		if d.Faults != nil && o.adapt {
			// With faults on, arm the watchdog so a stalled slow path
			// degrades gracefully instead of serving a half-built
			// standby forever. Window = 3 batch intervals.
			coreOpts = append(coreOpts, opt.WithWatchdog(opt.Watchdog{
				Window: 3 * o.batchT.Nanoseconds(),
			}))
		}
		dep := d.Deploy(cfg, rig.Build(args.Net, cfg.Quant, "model"), coreOpts...)
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

// runFleet executes the fleet distribution-plane scenario (-fleet N): one
// controller slow path serving N kernel datapaths on a spine–leaf fabric,
// under a drifting model that keeps minting snapshot versions. With chaos,
// odd members go dark on a jittered schedule, installs park on the degraded
// cores, and the recovery tail must restore epoch parity. The returned
// aggregate is the fleet-wide model-query rate in queries/s.
func runFleet(o options, rep int, chaos bool, tel *obs.Session, stdout, stderr io.Writer) (float64, error) {
	var workload *scenario.Spec
	if o.fleetScenario != "" {
		var err error
		if workload, err = loadScenario(o.fleetScenario); err != nil {
			return 0, err
		}
	}
	r := experiments.RunFleetScenario(experiments.FleetScenarioOpts{
		Members:      o.fleet,
		Seed:         o.seed + int64(rep),
		Dur:          netsim.Time(o.duration.Nanoseconds()),
		Chaos:        chaos,
		Obs:          tel.Scope(),
		Flight:       tel.Flight,
		FlightEvery:  flightEvery,
		CanaryCount:  o.canary,
		CanaryWindow: netsim.Time(o.canaryWin.Nanoseconds()),
		Workload:     workload,
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
