// Package fault is a deterministic, seed-driven fault injector for the
// simulated LiteFlow deployment. The paper's robustness story (§3.4, §4) is
// that the kernel fast path keeps serving inference when the userspace slow
// path is slow, stalled, or delivering bad snapshots — this package creates
// exactly those conditions on demand: netlink message drop/corruption,
// batch delivery delay and reordering, forced snapshot build/quantization
// failures, transient service outages (crash/restart windows), and CPU
// overload spikes.
//
// Every decision comes from the injector's own splitmix64 PRNG streams —
// one independent stream per subsystem so, e.g., enabling message drops does
// not perturb the outage schedule — and all timing is virtual simulation
// time. No wall clock, no global rand: two same-seed runs inject byte-
// identical fault sequences, so faulted runs stay diffable regression
// artifacts like everything else in the simulator.
//
// Every injected fault is emitted through the supplied obs.Scope under the
// "fault" trace category and counted in liteflow_fault_injected_total{kind},
// so traces show cause→effect: a "fault/outage" span explains the
// "core/degrade" event that follows it.
//
// A nil *Injector is valid and injects nothing; callers never need to guard
// call sites.
package fault

import (
	"math"

	"github.com/liteflow-sim/liteflow/internal/obs"
)

// Clock is the virtual-time surface the injector schedules against. It is
// structurally satisfied by *netsim.Engine (netsim.Time is an int64 alias);
// fault deliberately does not import netsim so the package sits below every
// layer it plugs into.
type Clock interface {
	Now() int64
	After(d int64, fn func())
}

// Profile declares which faults fire and how hard. Probabilities are in
// [0, 1]; durations are virtual nanoseconds. The zero Profile injects
// nothing.
type Profile struct {
	// Netlink kernel→userspace path.
	MsgDropP      float64 // per-message drop probability at flush time
	MsgCorruptP   float64 // per-message payload corruption probability
	BatchDelayP   float64 // per-flush probability of extra delivery delay
	BatchDelayMax int64   // max extra delay per delayed flush (ns)
	BatchReorderP float64 // per-flush probability of shuffling the batch

	// Slow-path snapshot pipeline.
	BuildFailP float64 // forced snapshot codegen failure probability
	QuantFailP float64 // forced quantization failure probability

	// Transient service outages: roughly every OutagePeriod (jittered), the
	// userspace service goes dark for OutageDuration and drops everything
	// delivered to it.
	OutagePeriod   int64
	OutageDuration int64

	// CPU overload spikes: roughly every SpikePeriod (jittered), SpikeWork
	// of extra softirq-class work lands on the host CPU.
	SpikePeriod int64
	SpikeWork   int64
}

// Active reports whether the profile injects anything at all.
func (p Profile) Active() bool {
	return p.MsgDropP > 0 || p.MsgCorruptP > 0 || p.BatchDelayP > 0 ||
		p.BatchReorderP > 0 || p.BuildFailP > 0 || p.QuantFailP > 0 ||
		(p.OutagePeriod > 0 && p.OutageDuration > 0) ||
		(p.SpikePeriod > 0 && p.SpikeWork > 0)
}

// Named profiles for cmd/lfsim's -fault-profile flag.
const (
	millisecond = int64(1e6)
	second      = int64(1e9)
)

// None injects nothing.
func None() Profile { return Profile{} }

// Netlink stresses only the channel: drops, corruption, delay, reordering.
func Netlink() Profile {
	return Profile{
		MsgDropP:      0.05,
		MsgCorruptP:   0.02,
		BatchDelayP:   0.2,
		BatchDelayMax: 20 * millisecond,
		BatchReorderP: 0.1,
	}
}

// SlowPath stresses the userspace service: build/quantization failures and
// crash/restart windows.
func SlowPath() Profile {
	return Profile{
		BuildFailP:     0.3,
		QuantFailP:     0.1,
		OutagePeriod:   2 * second,
		OutageDuration: 500 * millisecond,
	}
}

// Chaos turns everything on at once.
func Chaos() Profile {
	return Profile{
		MsgDropP:       0.05,
		MsgCorruptP:    0.02,
		BatchDelayP:    0.2,
		BatchDelayMax:  20 * millisecond,
		BatchReorderP:  0.1,
		BuildFailP:     0.2,
		QuantFailP:     0.05,
		OutagePeriod:   2 * second,
		OutageDuration: 500 * millisecond,
		SpikePeriod:    300 * millisecond,
		SpikeWork:      2 * millisecond,
	}
}

// ByName resolves a named profile: none, netlink, slowpath, chaos.
func ByName(name string) (Profile, bool) {
	switch name {
	case "", "none":
		return None(), true
	case "netlink":
		return Netlink(), true
	case "slowpath":
		return SlowPath(), true
	case "chaos":
		return Chaos(), true
	}
	return Profile{}, false
}

// rng is a splitmix64 stream — tiny, fast, and fully deterministic.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int64 in [0, n). n must be positive.
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// Stats counts the faults one injector injected. The injector counts into its
// own Stats, and its scope exports each field as a counter view: injectors
// built on one scope share the series, which exports their sum.
type Stats struct {
	Drops      int64
	Corrupts   int64
	Delays     int64
	Reorders   int64
	BuildFails int64
	QuantFails int64
	Outages    int64
	Spikes     int64
}

// Total sums every injected fault.
func (s Stats) Total() int64 {
	return s.Drops + s.Corrupts + s.Delays + s.Reorders +
		s.BuildFails + s.QuantFails + s.Outages + s.Spikes
}

// register exports one series per fault kind on sc, every kind eagerly, so
// the Prometheus export is shape-identical whether or not a kind ever fired.
func (j *Injector) register(sc obs.Scope) {
	st := &j.st
	for _, k := range []struct {
		kind string
		n    *int64
	}{
		{"msg_drop", &st.Drops}, {"msg_corrupt", &st.Corrupts},
		{"batch_delay", &st.Delays}, {"batch_reorder", &st.Reorders},
		{"build_fail", &st.BuildFails}, {"quant_fail", &st.QuantFails},
		{"service_outage", &st.Outages}, {"cpu_spike", &st.Spikes},
	} {
		sc.CounterOf("liteflow_fault_injected_total", "faults injected, by kind", k.n, obs.Label{Key: "kind", Value: k.kind})
	}
}

// Injector makes the fault decisions. All methods are safe on a nil
// receiver (no fault is injected), so wiring is unconditional.
type Injector struct {
	prof Profile
	sc   obs.Scope
	st   Stats

	// Independent decision streams so fault kinds do not perturb each other.
	net, snap, svc, cpu rng

	// Outage-window state; windows are generated lazily and assume the
	// monotonic virtual clock of the simulator.
	outageStart int64
	outageEnd   int64
	outageOpen  bool

	spiking bool
}

// New returns an injector driven by profile p and the given seed. The scope
// exports per-kind fault counters and "fault"-category trace events; a zero
// scope still counts (Stats keeps working) but exports nothing.
func New(p Profile, seed int64, sc obs.Scope) *Injector {
	mix := func(stream uint64) rng {
		r := rng{state: uint64(seed)*0x9e3779b97f4a7c15 + stream}
		r.next() // decorrelate adjacent seeds
		return r
	}
	j := &Injector{prof: p, sc: sc}
	j.register(sc)
	j.net = mix(1)
	j.snap = mix(2)
	j.svc = mix(3)
	j.cpu = mix(4)
	j.scheduleOutage(0)
	return j
}

// Profile returns the injector's profile (the zero Profile for nil).
func (j *Injector) Profile() Profile {
	if j == nil {
		return Profile{}
	}
	return j.prof
}

// Stats returns a copy of the injector's fault counts (zero for nil).
func (j *Injector) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	return j.st
}

// DropMessage decides whether one kernel→userspace message is lost at flush
// time.
func (j *Injector) DropMessage(now int64) bool {
	if j == nil || j.prof.MsgDropP <= 0 {
		return false
	}
	if j.net.float() >= j.prof.MsgDropP {
		return false
	}
	j.st.Drops++
	j.sc.Event("fault", "msg_drop", now)
	return true
}

// CorruptMessage decides whether to corrupt one message payload, mutating
// data in place. Corruption modes mirror what a buggy kernel-side encoder
// could produce — a negative or oversized length header, or non-finite
// values — all of which a hardened decoder must reject. It reports whether
// the payload was corrupted.
func (j *Injector) CorruptMessage(now int64, data []float64) bool {
	if j == nil || j.prof.MsgCorruptP <= 0 || len(data) == 0 {
		return false
	}
	if j.net.float() >= j.prof.MsgCorruptP {
		return false
	}
	mode := j.net.intn(4)
	switch mode {
	case 0:
		data[0] = -1 // negative input-length header
	case 1:
		data[0] = float64(len(data) + 64) // header overruns the payload
	case 2:
		data[0] = math.NaN() // non-finite header
	default:
		data[j.net.intn(int64(len(data)))] = math.NaN() // non-finite value
	}
	j.st.Corrupts++
	j.sc.Event1("fault", "msg_corrupt", now, "mode", mode)
	return true
}

// DeliveryDelay returns extra virtual-time delay to add to one batch
// delivery (0 for most flushes).
func (j *Injector) DeliveryDelay(now int64) int64 {
	if j == nil || j.prof.BatchDelayP <= 0 || j.prof.BatchDelayMax <= 0 {
		return 0
	}
	if j.net.float() >= j.prof.BatchDelayP {
		return 0
	}
	d := 1 + j.net.intn(j.prof.BatchDelayMax)
	j.st.Delays++
	j.sc.Event1("fault", "batch_delay", now, "ns", d)
	return d
}

// BatchPermutation returns a shuffled index permutation for an n-message
// batch, or nil to keep the original order.
func (j *Injector) BatchPermutation(now int64, n int) []int {
	if j == nil || j.prof.BatchReorderP <= 0 || n < 2 {
		return nil
	}
	if j.net.float() >= j.prof.BatchReorderP {
		return nil
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		k := j.net.intn(int64(i + 1))
		perm[i], perm[k] = perm[k], perm[i]
	}
	j.st.Reorders++
	j.sc.Event1("fault", "batch_reorder", now, "msgs", int64(n))
	return perm
}

// FailSnapshot decides whether one snapshot install attempt fails before it
// reaches the kernel, returning the failure stage ("build" or "quant").
func (j *Injector) FailSnapshot(now int64) (reason string, fail bool) {
	if j == nil {
		return "", false
	}
	if j.prof.BuildFailP > 0 && j.snap.float() < j.prof.BuildFailP {
		j.st.BuildFails++
		j.sc.EventStr("fault", "snapshot_fail", now, "stage", "build")
		return "build", true
	}
	if j.prof.QuantFailP > 0 && j.snap.float() < j.prof.QuantFailP {
		j.st.QuantFails++
		j.sc.EventStr("fault", "snapshot_fail", now, "stage", "quant")
		return "quant", true
	}
	return "", false
}

// ServiceDown reports whether the userspace service is inside a crash/
// restart window at the (monotonically advancing) virtual time now.
func (j *Injector) ServiceDown(now int64) bool {
	if j == nil || j.prof.OutagePeriod <= 0 || j.prof.OutageDuration <= 0 {
		return false
	}
	for now >= j.outageEnd {
		j.outageOpen = false
		j.scheduleOutage(j.outageEnd)
	}
	if now < j.outageStart {
		return false
	}
	if !j.outageOpen {
		j.outageOpen = true
		j.st.Outages++
		j.sc.Span("fault", "service_outage", j.outageStart, j.prof.OutageDuration)
	}
	return true
}

// scheduleOutage places the next outage window after the given time, with a
// jittered gap in [P/2, 3P/2).
func (j *Injector) scheduleOutage(after int64) {
	if j.prof.OutagePeriod <= 0 || j.prof.OutageDuration <= 0 {
		j.outageStart = math.MaxInt64
		j.outageEnd = math.MaxInt64
		return
	}
	gap := j.prof.OutagePeriod/2 + j.svc.intn(j.prof.OutagePeriod)
	j.outageStart = after + gap
	j.outageEnd = j.outageStart + j.prof.OutageDuration
}

// StartCPUSpikes schedules recurring CPU overload bursts on clk: roughly
// every SpikePeriod (jittered ±50%), charge is invoked with SpikeWork of
// extra work. charge typically closes over a ksim.CPU and charges softirq
// time. StopCPUSpikes cancels after the pending burst.
func (j *Injector) StartCPUSpikes(clk Clock, charge func(work int64)) {
	if j == nil || j.prof.SpikePeriod <= 0 || j.prof.SpikeWork <= 0 || j.spiking {
		return
	}
	j.spiking = true
	j.scheduleSpike(clk, charge)
}

// StopCPUSpikes halts the spike generator (experiment teardown).
func (j *Injector) StopCPUSpikes() {
	if j != nil {
		j.spiking = false
	}
}

func (j *Injector) scheduleSpike(clk Clock, charge func(work int64)) {
	gap := j.prof.SpikePeriod/2 + j.cpu.intn(j.prof.SpikePeriod)
	clk.After(gap, func() {
		if !j.spiking {
			return
		}
		j.st.Spikes++
		j.sc.Event1("fault", "cpu_spike", clk.Now(), "ns", j.prof.SpikeWork)
		charge(j.prof.SpikeWork)
		j.scheduleSpike(clk, charge)
	})
}
