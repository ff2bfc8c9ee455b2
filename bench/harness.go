package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// variant selects how one rep is run.
type variant int

const (
	plain  variant = iota // the program as a user runs it
	traced                // with the benchmark's decorators and spans
	scoped                // plain, but with a live obs.Scope (dumbbell-cc only)
)

func (v variant) String() string { return [...]string{"plain", "traced", "scoped"}[v] }

// env is what a workload's rep receives besides its set-up state.
type env struct {
	seed  int64
	quick bool
	rep   int
	tr    *tracer      // nil unless the rep is traced
	heap  *heapSampler // nil unless the rep measures memory
	scope bool
}

// check is one correctness assertion counted by failed_frac.
type check struct {
	name   string
	ok     bool
	detail string
}

// repOut is what one rep yields.
type repOut struct {
	units  int64
	m      measured
	digest uint64
	checks []check
	// layer holds per-layer values read from the program's public counters
	// and from the tracer, keyed by metric name.
	layer map[string]float64
	// query-mix only: host ns per query of every all-hit and all-miss
	// batch, and host ms of every install.
	hitNs, missNs, installMs []float64
}

func (r *repOut) check(name string, ok bool, format string, args ...any) {
	c := check{name: name, ok: ok}
	if !ok {
		c.detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

// workloadDef is one benchmark workload: setup does the one-time work before
// the first rep (its duration is setup_s), rep builds a fresh rig and runs
// one op. premise names the *_ms per-layer metrics that must own premiseWant
// of the traced wall time for the workload to be loading what it claims to.
type workloadDef struct {
	name, unit, why string
	hasScoped       bool
	premise         []string
	premiseWant     float64
	setup           func(seed int64, quick bool) (any, error)
	rep             func(state any, e *env) (*repOut, error)
}

// measured is the host cost of one timed region. End-to-end timings are taken
// over hostNs − stealNs: on a shared virtual machine the hypervisor's steal is
// a large part of the run-to-run noise, and it is not the program's doing.
type measured struct {
	hostNs     int64 // wall
	stealNs    int64
	cpuNs      int64 // process CPU (user + system)
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

// meter brackets a timed region. ReadMemStats stops the world, so it is
// called outside the wall-clock interval.
type meter struct {
	ms    runtime.MemStats
	cpu   int64
	steal []int64
	t0    time.Time
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// stealNow is, per CPU, the time the hypervisor ran something else while the
// CPU had work to do, as /proc/stat reports it (in ticks of 10 ms). Nil where
// there is no such figure.
func stealNow() []int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var steal []int64
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		ticks, _ := strconv.ParseInt(f[8], 10, 64) // 0 on a malformed line
		steal = append(steal, ticks*10_000_000)
	}
	return steal
}

// stolen is the steal of the most-stolen CPU between two readings. A CPU
// accrues steal only while it has work, so for a one-thread op this is the
// CPU the op ran on, and for a two-domain op the slower side of each window
// barrier; unlike the sum over CPUs it can never exceed the wall time.
func stolen(a, b []int64) int64 {
	var most int64
	for i := range a {
		if i < len(b) && b[i]-a[i] > most {
			most = b[i] - a[i]
		}
	}
	return most
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuNow()
	m.steal = stealNow()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() measured {
	host := time.Since(m.t0)
	steal := stealNow()
	cpu := cpuNow()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return measured{
		hostNs:     int64(host),
		stealNs:    stolen(m.steal, steal),
		cpuNs:      cpu - m.cpu,
		mallocs:    ms.Mallocs - m.ms.Mallocs,
		allocBytes: ms.TotalAlloc - m.ms.TotalAlloc,
		gcCycles:   ms.NumGC - m.ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs - m.ms.PauseTotalNs,
	}
}

// speedProbe measures how fast the host is right now; a process makes one and
// keeps it. The reference box is a
// shared virtual machine whose speed drifts by a tenth or more over minutes,
// mostly through its neighbours' use of the memory system; that moves every
// timing of a run together and is not the program's doing. Two fixed kernels
// are timed beside each timed region: the same xorshift walk over 32 KiB
// (bound by the ALU) and over 8 MiB (bound by memory latency). The table
// lives outside the Go heap, so it neither shows in peak_live_heap_mb nor
// moves the collector's pacing. A nil probe reports speed 1.
type speedProbe struct {
	tab  []byte
	span time.Duration // of one reading
	sink uint64
}

const (
	probeSteps = 100_000
	// Median kernel times on the reference box; they only fix the scale.
	probeALUNs, probeMemNs = 215e3, 480e3
)

func newSpeedProbe(quick bool) (*speedProbe, error) {
	tab, err := syscall.Mmap(-1, 0, 8<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("speed probe table: %w", err)
	}
	for i := range tab {
		tab[i] = byte(i * 131 >> 4)
	}
	p := &speedProbe{tab: tab, span: 100 * time.Millisecond}
	if quick {
		p.span = 5 * time.Millisecond
	}
	return p, nil
}

func (p *speedProbe) walk(mask uint64) float64 {
	t0 := time.Now()
	x, sum := uint64(88172645463325252), uint64(0)
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += uint64(p.tab[x&mask])
	}
	p.sink += sum
	return float64(time.Since(t0))
}

// speed is the host's speed relative to the reference box, 1 meaning equal:
// the geometric mean of the two kernels' speeds, each a median over the span.
func (p *speedProbe) speed() float64 {
	if p == nil {
		return 1
	}
	var alu, mem []float64
	for t0 := time.Now(); time.Since(t0) < p.span; {
		alu = append(alu, p.walk(1<<15-1))
		mem = append(mem, p.walk(1<<23-1))
	}
	return math.Sqrt(probeALUNs / median(alu) * probeMemNs / median(mem))
}

func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapSampler records the peak of /gc/heap/live:bytes. That figure only
// moves when a collection ends, so each sample forces one: the peak is then
// the largest reachable heap at a sample point, not an artefact of when the
// pacer happened to run. Forced collections perturb timing and empty
// sync.Pools, which is why memory is sampled on the untimed warm-up rep only.
type heapSampler struct {
	peak uint64
	s    [1]metrics.Sample
}

func newHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.s[0].Name = "/gc/heap/live:bytes"
	return h
}

func (h *heapSampler) sample() {
	if h == nil {
		return
	}
	runtime.GC()
	metrics.Read(h.s[:])
	if h.s[0].Value.Kind() == metrics.KindUint64 {
		if v := h.s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
}

// watch samples every 20 ms of host time until stop is called; for black-box
// ops that offer no slice boundary. stop returns after the sampler exited.
func (h *heapSampler) watch() (stop func()) {
	if h == nil {
		return func() {}
	}
	return every(20*time.Millisecond, h.sample)
}

// every calls fn from one goroutine each period until the returned stop is
// called; stop waits for the goroutine and runs fn a last time itself.
func every(period time.Duration, fn func()) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		fn()
	}
}

// digest is the FNV-64a of a workload's simulated outcome. A change that
// only speeds the simulator up must leave it identical.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) i64(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d digest) f64(vs ...float64) {
	for _, v := range vs {
		d.i64(int64(math.Float64bits(v)))
	}
}

func (d digest) str(s string) { d.h.Write([]byte(s)) }

func (d digest) sum() uint64 { return d.h.Sum64() }

// metric is one reported value: the median of the per-rep (or per-batch)
// values, with the quartiles, range and count of what it was taken over.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func metricOf(unit string, vs []float64) metric {
	if len(vs) == 0 {
		return metric{Unit: unit}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return metric{Value: quantile(s, 0.5), Unit: unit, Min: s[0], Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Max: s[len(s)-1], N: len(s)}
}

// quantile interpolates linearly in a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

func percentile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
