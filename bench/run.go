package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// runCfg is what the command line fixes for a run.
type runCfg struct {
	seed    int64
	quick   bool
	reps    int           // timed reps per workload when seconds is 0
	seconds time.Duration // when > 0: as many whole reps as start inside it
	probe   *speedProbe   // scales the untraced run's timings
}

// workloadResult is one workload's part of the output.
type workloadResult struct {
	Name         string   `json:"name"`
	Unit         string   `json:"unit"`
	SimDigest    string   `json:"sim_digest"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	FailedChecks []string `json:"failed_checks,omitempty"`
	// HostSpeed is the speed probe's reading beside the timed reps of the
	// untraced run, 1 being the reference box; the run's timings are scaled
	// by it.
	HostSpeed metric            `json:"host_speed"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Premise is the share of the traced run's wall time spent in the
	// layers the workload exists to load, with the share it must reach.
	Premise *premise `json:"premise,omitempty"`

	trace  *tracer
	digest uint64 // of the first rep; 0 before it
}

type premise struct {
	Layers string  `json:"layers"`
	Share  float64 `json:"share"`
	Want   float64 `json:"want"`
}

// tally folds a rep's checks, and the check that its digest equals the first
// rep's, into the result.
func (r *workloadResult) tally(rep string, out *repOut) {
	if r.digest == 0 {
		r.digest = out.digest
		r.SimDigest = fmt.Sprintf("%016x", out.digest)
	}
	out.check("sim_digest", out.digest == r.digest, "digest %016x differs from the first rep's %016x", out.digest, r.digest)
	for _, c := range out.checks {
		r.Attempted++
		if !c.ok {
			r.Failed++
			r.FailedChecks = append(r.FailedChecks, fmt.Sprintf("%s: %s: %s", rep, c.name, c.detail))
		}
	}
}

// budget says whether another rep may start.
type budget struct {
	cfg   runCfg
	t0    time.Time
	done  int
	least int
}

func (b *budget) more() bool {
	if b.done < b.least {
		return true
	}
	if b.cfg.seconds > 0 {
		return time.Since(b.t0) < b.cfg.seconds
	}
	return b.done < b.cfg.reps
}

// hostSeconds is a timed region's host seconds: wall minus steal, scaled to
// the reference box's speed by the mean of the probe's readings before and
// after the region.
func (m measured) hostSeconds(speed float64) float64 {
	return float64(m.hostNs-m.stealNs) / 1e9 * speed
}

func appendScaled(dst, src []float64, by float64) []float64 {
	for _, v := range src {
		dst = append(dst, v*by)
	}
	return dst
}

// timeSetup runs the workload's one-time set-up several times and returns
// the state of the last run with every duration: five runs at least, and
// more, up to 100, while they fit in a second, so that a set-up of a
// millisecond still yields a steady median. The probe is read before the
// first and after the last.
func timeSetup(w *workloadDef, cfg runCfg) (any, []float64, error) {
	var state any
	var runs []measured
	var total time.Duration
	before := cfg.probe.speed()
	for len(runs) < 5 || (total < time.Second && len(runs) < 100) {
		runtime.GC() // each set-up starts from the same heap
		m := startMeter()
		st, err := w.setup(cfg.seed, cfg.quick)
		d := m.stop()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		state, total, runs = st, total+time.Duration(d.hostNs), append(runs, d)
		if cfg.quick {
			break
		}
	}
	speed := (before + cfg.probe.speed()) / 2
	secs := make([]float64, len(runs))
	for i, d := range runs {
		secs[i] = d.hostSeconds(speed)
	}
	return state, secs, nil
}

// runPlain is the untraced run: set-up, one untimed warm-up rep that also
// measures memory, then the timed reps. It yields the end-to-end metrics.
func runPlain(w *workloadDef, cfg runCfg) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Unit: w.unit, EndToEnd: map[string]metric{}}
	probe := cfg.probe
	state, setupSecs, err := timeSetup(w, cfg)
	if err != nil {
		return nil, err
	}

	heap := newHeapSampler()
	warm, err := w.rep(state, &env{seed: cfg.seed, quick: cfg.quick, heap: heap})
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up rep: %w", w.name, err)
	}
	heap.sample()
	res.tally("warm-up", warm)

	var perS, allocs, bytes, hit, miss, install, speeds []float64
	repMedians := map[string][]float64{} // of the per-batch metrics
	before := probe.speed()
	for b := (&budget{cfg: cfg, t0: time.Now(), least: 2}); b.more(); b.done++ {
		runtime.GC()
		out, err := w.rep(state, &env{seed: cfg.seed, quick: cfg.quick, rep: b.done})
		if err != nil {
			return nil, fmt.Errorf("%s: rep %d: %w", w.name, b.done, err)
		}
		after := probe.speed()
		speed := (before + after) / 2
		res.tally(fmt.Sprintf("rep %d", b.done), out)
		u := float64(out.units)
		perS = append(perS, ratio(u, out.m.hostSeconds(speed)))
		allocs = append(allocs, ratio(float64(out.m.mallocs), u))
		bytes = append(bytes, ratio(float64(out.m.allocBytes), u))
		hit, miss, install = appendScaled(hit, out.hitNs, speed), appendScaled(miss, out.missNs, speed), appendScaled(install, out.installMs, speed)
		for name, v := range map[string][]float64{"query_hit_ns_p50": out.hitNs, "query_miss_ns_p50": out.missNs, "install_ms_p50": out.installMs} {
			if len(v) > 0 {
				repMedians[name] = append(repMedians[name], median(v)*speed)
			}
		}
		speeds = append(speeds, speed)
		before = after
	}
	res.HostSpeed = metricOf("ratio", speeds)

	// The query metrics stay absent, not zero, where there is no query
	// stream.
	vals := map[string][]float64{
		"setup_s": setupSecs, "units_per_s": perS, "allocs_per_unit": allocs, "bytes_per_unit": bytes,
		"peak_live_heap_mb": {float64(heap.peak) / (1 << 20)},
		"failed_frac":       {ratio(float64(res.Failed), float64(res.Attempted))},
		"query_hit_ns_p50":  hit, "query_miss_ns_p50": miss, "install_ms_p50": install,
	}
	for _, d := range e2eDefs {
		if len(vals[d.name]) > 0 {
			res.EndToEnd[d.name] = metricOf(d.unit, vals[d.name])
		}
	}
	// -compare reads the quartiles and range as the spread between reps;
	// for a median over all batches of all reps those are the ones of the
	// reps' medians.
	for name, meds := range repMedians {
		m, r := res.EndToEnd[name], metricOf("", meds)
		m.Min, m.Q1, m.Q3, m.Max = r.Min, r.Q1, r.Q3, r.Max
		res.EndToEnd[name] = m
	}
	return res, nil
}

// runTraced yields the per-layer metrics. After set-up and a warm-up rep it
// alternates untraced and traced reps (and, where the workload has one, reps
// with a live obs scope), so that the tracing overhead is a paired
// comparison inside one process; then it runs the probes.
func runTraced(w *workloadDef, cfg runCfg) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Unit: w.unit, PerLayer: map[string]metric{}, trace: newTracer()}
	state, err := w.setup(cfg.seed, cfg.quick)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	warm, err := w.rep(state, &env{seed: cfg.seed, quick: cfg.quick})
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up rep: %w", w.name, err)
	}
	res.tally("warm-up", warm)

	variants := []variant{plain, traced}
	if w.hasScoped {
		variants = append(variants, scoped)
	}
	wall := map[variant][]float64{}
	layer := map[string][]float64{}
	var cpuPerWall, gcCycles, gcPauseMs, hit, miss, install []float64
	goroutines := 0
	// One round is one rep of each variant; -reps counts rounds here.
	for b := (&budget{cfg: cfg, t0: time.Now(), least: 1}); b.more(); b.done++ {
		for _, v := range variants {
			e := &env{seed: cfg.seed, quick: cfg.quick, rep: b.done, scope: v == scoped}
			stop := func() {}
			if v == traced {
				e.tr = res.trace
				stop = every(20*time.Millisecond, func() {
					if n := runtime.NumGoroutine(); n > goroutines {
						goroutines = n
					}
				})
			}
			runtime.GC()
			out, err := w.rep(state, e)
			stop()
			if err != nil {
				return nil, fmt.Errorf("%s: round %d: %w", w.name, b.done, err)
			}
			res.tally(fmt.Sprintf("round %d %s", b.done, v), out)
			wall[v] = append(wall[v], float64(out.m.hostNs)/1e9)
			if v == scoped {
				layer["obs.series"] = append(layer["obs.series"], out.layer["obs.series"])
			}
			if v != traced {
				continue
			}
			for k, x := range out.layer {
				layer[k] = append(layer[k], x)
			}
			cpuPerWall = append(cpuPerWall, ratio(float64(out.m.cpuNs), float64(out.m.hostNs)))
			gcCycles = append(gcCycles, float64(out.m.gcCycles))
			gcPauseMs = append(gcPauseMs, ms(int64(out.m.gcPauseNs)))
			hit, miss, install = append(hit, out.hitNs...), append(miss, out.missNs...), append(install, out.installMs...)
		}
	}

	probes := map[string]float64{}
	if err := runProbes(probes, cfg.quick); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for k, x := range probes {
		layer[k] = []float64{x}
	}
	layer["go.gc_cycles"], layer["go.gc_pause_ms"] = gcCycles, gcPauseMs
	layer["go.goroutines_peak"] = []float64{float64(goroutines)}
	layer["run.wall_s"], layer["run.cpu_per_wall"] = wall[traced], cpuPerWall
	layer["trace.overhead_frac"] = []float64{ratio(median(wall[traced]), median(wall[plain])) - 1}
	if w.hasScoped {
		layer["obs.scope_overhead_frac"] = []float64{ratio(median(wall[scoped]), median(wall[plain])) - 1}
	}
	layer["query_hit_ns_p50"], layer["query_miss_ns_p50"], layer["install_ms_p50"] = hit, miss, install
	for _, d := range layerDefs {
		res.PerLayer[d.name] = metricOf(d.unit, layer[d.name])
	}
	res.Premise = premiseOf(w, res.PerLayer)
	return res, nil
}

// premiseOf computes the share of the traced wall time owned by the layers a
// workload exists to load. The two black-box workloads name none: they have
// no boundary to take a share at.
func premiseOf(w *workloadDef, l map[string]metric) *premise {
	if len(w.premise) == 0 {
		return nil
	}
	var sum float64
	for _, name := range w.premise {
		sum += l[name].Value
	}
	return &premise{Layers: strings.Join(w.premise, " + "), Want: w.premiseWant,
		Share: ratio(sum, l["run.wall_s"].Value*1e3)}
}
