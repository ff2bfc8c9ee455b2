package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// Sample is one kernel-collected training record: the NN input plus whatever
// auxiliary signals the user's tuning algorithm needs (rewards, labels,
// utilization — LiteFlow does not interpret Aux).
type Sample struct {
	Input []float64
	Aux   []float64
	At    netsim.Time
}

// AppendSample, the one encoder, appends s's netlink payload to dst: the
// input length, the input, then the aux values. Channel.Push copies it, so a
// pusher encoding into a scratch buffer it keeps allocates nothing per sample.
func AppendSample(dst []float64, s Sample) []float64 {
	dst = append(slices.Grow(dst, 1+len(s.Input)+len(s.Aux)), float64(len(s.Input)))
	return append(append(dst, s.Input...), s.Aux...)
}

// EncodeSample packs a sample into a netlink message with its own payload.
func EncodeSample(s Sample) netlink.Message {
	return netlink.Message{Data: AppendSample(nil, s), At: s.At}
}

// ParseSample unpacks and validates a netlink message produced by
// EncodeSample. The channel boundary is where a real kernel validates
// userspace-visible data, so a corrupt payload is rejected — with an error
// wrapping ErrMalformedSample — rather than misparsed or panicked on.
// Validation covers the input-length header (finite, integral, within the
// payload; the range check runs in float space because a huge float→int
// conversion is implementation-defined) and every payload value (finite).
func ParseSample(m netlink.Message) (Sample, error) {
	n, err := sampleInputLen(m)
	if err != nil {
		return Sample{}, err
	}
	return cutSample(make([]float64, len(m.Data)-1), m, n), nil
}

// ParseBatch is ParseSample over one delivered batch: the samples of every
// message that validates are appended to dst in order, and the messages that
// do not are counted in malformed. The batch's accepted
// payloads share one slab instead of two allocations per sample: a fresh one
// with a nil arena, else the end of *arena, which its owner may cut back for
// reuse once it no longer needs the samples.
func ParseBatch(dst []Sample, arena *[]float64, batch []netlink.Message) (samples []Sample, malformed int) {
	size := 0
	for _, m := range batch {
		if len(m.Data) > 0 {
			size += len(m.Data) - 1
		}
	}
	if arena == nil {
		arena = new([]float64)
	}
	*arena = slices.Grow(*arena, size)
	slab := (*arena)[len(*arena) : len(*arena)+size]
	for _, m := range batch {
		n, err := sampleInputLen(m)
		if err != nil {
			malformed++
			continue
		}
		payload := len(m.Data) - 1
		dst = append(dst, cutSample(slab[:payload], m, n))
		slab = slab[payload:]
	}
	*arena = (*arena)[:len(*arena)+size-len(slab)] // less what malformed messages reserved
	return dst, malformed
}

// sampleInputLen validates m as ParseSample documents and returns its input
// length.
func sampleInputLen(m netlink.Message) (int, error) {
	if len(m.Data) < 1 {
		return 0, fmt.Errorf("%w: empty payload", ErrMalformedSample)
	}
	h := m.Data[0]
	if math.IsNaN(h) || math.IsInf(h, 0) || h != math.Trunc(h) ||
		h < 0 || h > float64(len(m.Data)-1) {
		return 0, fmt.Errorf("%w: input-length header %v outside [0, %d]",
			ErrMalformedSample, h, len(m.Data)-1)
	}
	for i, v := range m.Data[1:] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("%w: non-finite value at offset %d",
				ErrMalformedSample, i+1)
		}
	}
	return int(h), nil
}

// cutSample copies m's payload into buf (exactly its size) and returns the
// sample viewing it: n input values, then the aux values. The copy takes the
// sample out of the message's backing array — the channel (and a fault
// injector corrupting queued payloads) retains m.Data, and adapters may
// mutate the samples they are handed, so shared backing would let either side
// rewrite the other's history. Both views are capacity-limited, so an
// adapter's append cannot reach what follows buf in a shared slab.
func cutSample(buf []float64, m netlink.Message, n int) Sample {
	copy(buf, m.Data[1:])
	return Sample{Input: buf[:n:n], Aux: buf[n:len(buf):len(buf)], At: m.At}
}

// The three user interfaces of the userspace service (paper §4.1). LiteFlow
// is not tied to any learning framework: users implement these with whatever
// tooling they like.

// Freezer is the NN Freezing Interface: it returns the current userspace
// model for snapshot generation.
type Freezer interface {
	Freeze() *nn.Network
}

// Evaluator is the NN Evaluation Interface: a stability value monitored for
// convergence (e.g. training loss), and userspace inference for fidelity
// comparison against the kernel snapshot.
type Evaluator interface {
	Stability() float64
	Infer(in []float64) []float64
}

// BatchEvaluator is an Evaluator that can also answer a block of inputs in
// one call: InferBatch writes f(xs[k]) to ys[k·OutputSize() : (k+1)·
// OutputSize()], as nn.Network.InferBatch does. It is optional — Evaluator is
// the paper's interface and all a user has to implement — and the necessity
// gate uses it when present, because a model that sees a block at a time can
// run it as a kernel where Infer pays per call.
type BatchEvaluator interface {
	Evaluator
	OutputSize() int
	InferBatch(xs [][]float64, ys []float64)
}

// Adapter is the NN Online Adaptation Interface: tune the userspace model
// with one batch of kernel-collected samples.
type Adapter interface {
	Adapt(batch []Sample)
}

// ServiceStats counts slow-path activity. The service counts into its own
// ServiceStats, and its scope exports each field as a counter or gauge view.
type ServiceStats struct {
	Batches            int64
	Samples            int64
	Converged          int64 // batches that passed the correctness gate
	FidelityChecks     int64
	Updates            int64 // snapshots actually installed
	SkippedByNecessity int64
	BuildFailures      int64 // snapshot codegen failures (install retried)
	InstallRetries     int64 // retry-with-backoff attempts after failures
	InstallsAbandoned  int64 // installs dropped: retry budget or rejection
	InstallsParked     int64 // installs parked on a degraded core, awaiting recovery
	OutageDrops        int64 // batches dropped inside injected outages
	Malformed          int64 // messages rejected by ParseSample
	FidelityMismatches int64 // fidelity samples skipped for output-size mismatch
	LastFidelity       float64
	LastStability      float64
}

// register exports the service's counts on sc.
func (s *Service) register(sc obs.Scope) {
	st := &s.st
	sc.CounterOf("liteflow_service_batches_total", "sample batches processed by the slow path", &st.Batches)
	sc.CounterOf("liteflow_service_samples_total", "training samples processed by the slow path", &st.Samples)
	sc.CounterOf("liteflow_service_converged_total", "batches that passed the correctness gate", &st.Converged)
	sc.CounterOf("liteflow_service_fidelity_checks_total", "necessity evaluations performed", &st.FidelityChecks)
	sc.CounterOf("liteflow_service_updates_total", "snapshots installed into the kernel", &st.Updates)
	sc.CounterOf("liteflow_service_skipped_by_necessity_total", "installs skipped because fidelity loss was below threshold", &st.SkippedByNecessity)
	sc.CounterOf("liteflow_snapshot_build_failures_total", "snapshot build failures; the install is retried with backoff", &st.BuildFailures)
	sc.CounterOf("liteflow_snapshot_install_retries_total", "snapshot install retry attempts after build failures", &st.InstallRetries)
	sc.CounterOf("liteflow_snapshot_installs_abandoned_total", "snapshot installs dropped: retry budget exhausted, module rejected, or channel closed", &st.InstallsAbandoned)
	sc.CounterOf("liteflow_snapshot_installs_parked_total", "snapshot installs parked on a degraded core until recovery", &st.InstallsParked)
	sc.CounterOf("liteflow_service_outage_drops_total", "batches dropped because the service was inside an injected outage", &st.OutageDrops)
	sc.CounterOf("liteflow_service_malformed_total", "netlink messages rejected by sample validation", &st.Malformed)
	sc.CounterOf("liteflow_service_fidelity_size_mismatch_total", "fidelity samples skipped because kernel and user output sizes disagreed", &st.FidelityMismatches)
	obs.GaugeOf(sc, "liteflow_service_last_fidelity", "minimal fidelity loss from the latest necessity check", &st.LastFidelity)
	obs.GaugeOf(sc, "liteflow_service_last_stability", "stability metric from the latest batch", &st.LastStability)
}

// Service is the LiteFlow userspace service: it receives batched training
// data over the netlink channel, drives the user's Adapter, and decides
// snapshot synchronization from correctness (convergence) and necessity
// (fidelity loss) — paper §3.2–§3.4.
type Service struct {
	Core *Core
	Chan *netlink.Channel

	Freezer   Freezer
	Evaluator Evaluator
	Adapter   Adapter

	// NamePrefix names generated snapshot modules (suffix is a counter).
	NamePrefix string

	// OnUpdate, when set, observes each snapshot install.
	OnUpdate func(m *Model)

	gate       StabilityGate
	snapCount  int
	installing bool   // a fidelity check or install is in flight; settle clears it
	parked     *Model // standby registered while degraded, awaiting recovery
	rows       [displaced + 1]outcomeRow

	// life is the open lifecycle span for the snapshot version currently
	// being pooled toward: opened on the first batch after the previous
	// lifecycle closed, versioned at build time, ended at activation (or
	// failure). lifeStaged records that the pool/correctness/necessity
	// children were already emitted for this root.
	spans      *obs.SpanTracer
	life       *obs.Span
	lifeStaged bool

	sc obs.Scope
	st ServiceStats
}

// NewSlowPath wires a service to the core and its netlink channel. The
// channel's delivery callback is replaced; call StartBatching on the channel
// (or Service.Start) to begin periodic delivery. The service exports under
// the core's scope. The channel's fault injector (netlink.Channel.SetFaults)
// subjects the service to injected outages and snapshot failures too.
// Attaching a service arms the core's watchdog when one was configured.
func NewSlowPath(c *Core, ch *netlink.Channel, f Freezer, e Evaluator, a Adapter) *Service {
	s := &Service{Core: c, Chan: ch, Freezer: f, Evaluator: e, Adapter: a, NamePrefix: "snapshot",
		sc: c.Obs()}
	s.register(s.sc)
	s.rows = outcomeTable(&s.st)
	s.spans = obs.NewSpanTracer(s.sc)
	ch.SetDeliver(s.HandleBatch)
	c.AttachSlowPath()
	return s
}

// Start begins batched data delivery every interval (the paper's T,
// recommended 100 ms–1000 ms; §5.1's micro-benchmark).
func (s *Service) Start(interval netsim.Time) {
	s.Chan.StartBatching(interval)
}

// Stats returns a copy of the service's counters.
func (s *Service) Stats() ServiceStats { return s.st }

// HandleBatch processes one delivered batch: adapt, then evaluate
// synchronization. It is exposed so hosts can wire it as the channel's
// delivery callback. A batch arriving inside an injected service outage is
// dropped wholesale — a crashed process consumes nothing — which is exactly
// the silence the core's watchdog detects.
func (s *Service) HandleBatch(batch []netlink.Message) {
	now := s.Core.Eng.Now()
	if s.Chan.Faults().ServiceDown(int64(now)) {
		s.st.OutageDrops++
		s.sc.Event1("service", "outage_drop", now, "msgs", int64(len(batch)))
		return
	}
	s.Core.NoteSlowPathAlive()
	s.activateParked()
	// A fresh slab per batch: an Adapter may keep the samples it is handed.
	samples, malformed := ParseBatch(make([]Sample, 0, len(batch)), nil, batch)
	for ; malformed > 0; malformed-- {
		s.st.Malformed++
		s.sc.Event("service", "malformed", now)
	}
	if len(samples) == 0 {
		return
	}
	s.st.Batches++
	s.st.Samples += int64(len(samples))
	if s.life == nil {
		s.life = s.spans.Root("snapshot_lifecycle", now)
	}

	s.Adapter.Adapt(samples)
	s.st.LastStability = s.Evaluator.Stability()

	if !s.gate.Converged(s.st.LastStability, s.Core.Cfg) {
		return
	}
	s.st.Converged++
	s.evaluateNecessity(samples)
}

// activateParked activates a snapshot whose install landed inside a degraded
// window. The core kept it registered as the parked standby through the
// outage; NoteSlowPathAlive has just cleared degradation, so the built module
// activates now instead of being discarded and rebuilt from scratch.
func (s *Service) activateParked() {
	if s.parked == nil {
		return
	}
	m := s.parked
	s.parked = nil
	if err := s.Core.Activate(); err != nil {
		s.settle(displaced, nil, "", 0)
		return
	}
	s.life.Child("parked_activate", s.Core.Eng.Now(), 0)
	s.settle(recovered, m, m.Name, 0)
}

// StabilityGate is the correctness gate (paper §3.3): a snapshot may only be
// taken once the user's stability metric has stayed within a relative
// tolerance band across a window of rounds. The single-core Service and the
// fleet controller run the same policy over their own metric streams.
type StabilityGate struct{ hist []float64 }

// Converged records v as the latest round's stability and reports whether the
// last cfg.StabilityWindow values lie within cfg.StabilityTolerance of each
// other, relative to the larger magnitude. A window below 1 is 1: any single
// value is stable.
func (g *StabilityGate) Converged(v float64, cfg Config) bool {
	g.hist = append(g.hist, v)
	w := cfg.StabilityWindow
	if w < 1 {
		w = 1
	}
	if len(g.hist) > w { // slid back to the array's start: append never regrows it
		g.hist = g.hist[:copy(g.hist, g.hist[len(g.hist)-w:])]
	}
	if len(g.hist) < w {
		return false
	}
	lo, hi := g.hist[0], g.hist[0]
	for _, v := range g.hist[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	scale := math.Max(math.Abs(hi), math.Abs(lo))
	if scale < 1e-12 {
		return true
	}
	return (hi-lo)/scale <= cfg.StabilityTolerance
}

// Reset forgets the history, so convergence must be re-earned.
func (g *StabilityGate) Reset() { g.hist = g.hist[:0] }

// fidelityBlock is how many samples MinFidelityLoss gathers before it asks the
// user model for their outputs: enough to amortise a call and keep a batched
// model's four-sample passes full, small enough that the block's buffers stay
// in cache.
const fidelityBlock = 64

// MinFidelityLoss is the necessity gate's measurement (paper §3.4): the
// smallest L1 distance, over samples, between the snapshot's output f'(x) and
// the userspace model's f(x). Samples whose input does not fit prog are
// passed over; so are those where the two outputs differ in size — a
// truncated partial sum would understate the loss and mask real divergence —
// and these are counted in mismatched. beforeInfer, when not nil, runs before
// each snapshot inference (the service charges kernel CPU there). minLoss is
// +Inf when no sample could be compared.
//
// The samples that fit are taken fidelityBlock at a time: the snapshot
// answers each as it is gathered, the user model answers the block — in one
// InferBatch when it is a BatchEvaluator, one Infer per sample otherwise —
// and one loop compares the two.
func MinFidelityLoss(prog *quant.Program, user Evaluator, samples []Sample, beforeInfer func()) (minLoss float64, mismatched int) {
	minLoss = math.Inf(1)
	in := make([]int64, prog.InputSize())
	out := make([]int64, prog.OutputSize())
	// A service at a short batch interval calls this with a sample or two:
	// the block's buffers are no larger than the pool.
	block := min(len(samples), fidelityBlock)
	kernelOut := make([]float64, block*len(out))
	xs := make([][]float64, block)
	var userOut [fidelityBlock][]float64
	batch, _ := user.(BatchEvaluator)
	var ys []float64 // a BatchEvaluator's outputs for one block, w per sample
	w := 0
	if batch != nil {
		w = batch.OutputSize()
		ys = make([]float64, block*w)
	}
	for len(samples) > 0 {
		n := 0
		for len(samples) > 0 && n < block {
			sm := samples[0]
			samples = samples[1:]
			if len(sm.Input) != len(in) {
				continue
			}
			prog.QuantizeInput(sm.Input, in)
			if beforeInfer != nil {
				beforeInfer()
			}
			prog.Infer(in, out)
			prog.DequantizeOutput(out, kernelOut[n*len(out):(n+1)*len(out)])
			xs[n] = sm.Input
			n++
		}
		if n == 0 {
			break // nothing left that fits
		}
		if batch != nil {
			batch.InferBatch(xs[:n], ys[:n*w])
			for k := range userOut[:n] {
				userOut[k] = ys[k*w : (k+1)*w]
			}
		} else {
			for k, x := range xs[:n] {
				userOut[k] = user.Infer(x)
			}
		}
		for k, u := range userOut[:n] {
			if len(u) != len(out) {
				mismatched++
				continue
			}
			l := 0.0
			for i, v := range kernelOut[k*len(out) : (k+1)*len(out)] {
				l += math.Abs(v - u[i])
			}
			if l < minLoss {
				minLoss = l
			}
		}
	}
	return minLoss, mismatched
}

// outcome is how one round of the snapshot pipeline — fidelity check, build,
// install — ended. Every round that set Service.installing ends in exactly one
// settle, and so does the catch-up activation of a parked standby.
type outcome uint8

const (
	installed         outcome = iota // the standby was registered and switched in
	recovered                        // a parked standby was switched in after recovery
	parked                           // registered on a degraded core; activateParked finishes it
	skipped                          // fidelity loss within α·(Omax−Omin): nothing to update
	nothingComparable                // no active snapshot, or no sample both models could answer
	abandoned                        // build retries exhausted
	rejected                         // the core refused the module or the switch
	displaced                        // the parked standby was gone when recovery came
)

// outcomeRow is what settle does for one outcome: the count it bumps, the
// trace event that announces it — carrying the module name, the attempt count
// or nothing — and what becomes of the open lifecycle span. A live outcome ends
// it and fires OnUpdate, a failed one ends it with that reason, and the rest
// leave it open for the next round of the same lifecycle.
type outcomeRow struct {
	counter    *int64 // a field of the service's ServiceStats, or nil
	cat, event string
	arg        string // "model", "attempts" or ""
	live       bool
	failed     string
}

func outcomeTable(st *ServiceStats) [displaced + 1]outcomeRow {
	return [...]outcomeRow{
		installed:         {counter: &st.Updates, live: true},
		recovered:         {counter: &st.Updates, cat: "snapshot", event: "parked_activate", arg: "model", live: true},
		parked:            {counter: &st.InstallsParked, cat: "snapshot", event: "install_parked", arg: "model"},
		skipped:           {counter: &st.SkippedByNecessity, cat: "service", event: "necessity_skip"},
		nothingComparable: {},
		abandoned:         {counter: &st.InstallsAbandoned, cat: "snapshot", event: "install_abandoned", arg: "attempts", failed: "abandoned"},
		rejected:          {counter: &st.InstallsAbandoned, cat: "snapshot", event: "install_rejected", arg: "model", failed: "rejected"},
		displaced:         {failed: "displaced"},
	}
}

// settle ends a round with outcome o: it is the only place the pipeline is
// marked free again and the only place a lifecycle closes. m is the model an
// install produced (nil when none), name the module's, attempts how many
// builds an abandoned install made.
func (s *Service) settle(o outcome, m *Model, name string, attempts int) {
	row := &s.rows[o]
	now := s.Core.Eng.Now()
	if row.counter != nil {
		*row.counter++
	}
	switch {
	case row.arg == "model":
		s.sc.EventStr(row.cat, row.event, now, "model", name)
	case row.arg == "attempts":
		s.sc.Event1(row.cat, row.event, now, "attempts", int64(attempts))
	case row.event != "":
		s.sc.Event(row.cat, row.event, now)
	}
	if row.live || row.failed != "" {
		if row.live {
			s.life.End(now)
		} else {
			s.life.EndFailed(now, row.failed)
		}
		s.closeLife()
	}
	s.installing = false
	if row.live && s.OnUpdate != nil {
		s.OnUpdate(m)
	}
}

// evaluateNecessity computes the minimal fidelity loss over the batch.
// Kernel snapshot outputs must travel to userspace: the service sends the
// inputs down and the outputs come back, both charged as cross-space work
// (the second netlink message type of §4.2). The snapshot is updated only
// when min L(x) exceeds α·(Omax−Omin).
func (s *Service) evaluateNecessity(samples []Sample) {
	if s.installing {
		return // a fidelity check or install is already in flight
	}
	// Mark the pipeline busy at schedule time, not deep inside the install
	// callbacks: the fidelity round trip spends a full cross-space RTT in
	// flight, and a second batch arriving inside that window must not launch
	// a concurrent check — overlapping installs race for the standby slot and
	// double-ship parameters. settle clears the flag.
	s.installing = true
	s.st.FidelityChecks++
	necStart := s.Core.Eng.Now()

	payload := 0
	for _, sm := range samples {
		payload += 8 * len(sm.Input)
	}
	s.Chan.SendToKernel(payload, func() {
		active := s.Core.Active()
		if active == nil {
			s.settle(nothingComparable, nil, "", 0)
			return
		}
		var charge func()
		if s.Core.CPU != nil {
			charge = func() { s.Core.CPU.Charge(ksim.Kernel, active.Cost()) }
		}
		minLoss, mismatched := MinFidelityLoss(active.Program(), s.Evaluator, samples, charge)
		s.st.FidelityMismatches += int64(mismatched)
		if math.IsInf(minLoss, 1) {
			s.settle(nothingComparable, nil, "", 0)
			return
		}
		// Response crosses back to userspace.
		if s.Core.CPU != nil {
			s.Core.CPU.Charge(ksim.SoftIRQ, s.Core.Costs.CrossSpace)
		}
		s.Core.Eng.After(s.Core.Costs.CrossSpaceLatency, func() {
			s.st.LastFidelity = minLoss
			threshold := Alpha * (s.Core.Cfg.OutMax - s.Core.Cfg.OutMin)
			if minLoss <= threshold {
				s.settle(skipped, nil, "", 0)
				return
			}
			// The gate passed: stage the lifecycle children. Pooling and the
			// correctness gate are emitted once per root (a lifecycle can run
			// several necessity rounds if earlier installs failed); the
			// necessity span covers this round's fidelity RTT.
			decided := s.Core.Eng.Now()
			if s.life != nil && !s.lifeStaged {
				s.lifeStaged = true
				s.life.Child("pool", s.life.Start(), necStart-s.life.Start())
				s.life.Child("correctness_gate", necStart, 0)
			}
			s.life.Child("necessity_gate", necStart, decided-necStart)
			s.tryInstall(0)
		})
	})
}

// The install retry policy: an attempt that fails to build waits
// installRetryBase<<n of virtual time before attempt n+1, up to
// installAttempts attempts in total (so the waits are 50 ms and 100 ms).
const (
	installAttempts  = 3
	installRetryBase = 50 * netsim.Millisecond
)

// backoff returns the wait before retry attempt n.
func backoff(attempt int) netsim.Time { return installRetryBase << attempt }

// tryInstall runs one install attempt (0-based): it freezes the userspace
// model, generates a quantized module, ships it to the kernel as the standby
// snapshot and switches roles — the active-standby-switch of §3.4. The
// datapath keeps using the old active snapshot for the whole install. Build
// failures — real codegen errors or injected build/quantization faults, both
// wrapping codegen.ErrSnapshotBuild — schedule a retry after bounded backoff
// in virtual time (see backoff) until the attempt budget is exhausted; then
// the install is abandoned and the service keeps adapting with the current
// snapshot. The fast path is never touched by a failed attempt.
func (s *Service) tryInstall(attempt int) {
	now := s.Core.Eng.Now()
	net := s.Freezer.Freeze()
	s.snapCount++
	name := s.NamePrefix + "_" + strconv.Itoa(s.snapCount)

	var mod *codegen.Module
	var err error
	if reason, fail := s.Chan.Faults().FailSnapshot(int64(now)); fail {
		err = fmt.Errorf("%w: injected %s failure", codegen.ErrSnapshotBuild, reason)
	} else {
		mod, err = codegen.Build(quant.Quantize(net, s.Core.Cfg.Quant), name)
	}
	if err != nil {
		// A bad user network (or injected fault) must not take down the
		// service: count it, back off, retry. The failure chain is visible
		// in the build-failure/retry counters and the trace.
		s.st.BuildFailures++
		s.sc.EventMix("snapshot", "build_failure", now, "attempt", int64(attempt+1), "model", name)
		s.life.Mark("build_failure", now, "attempt", int64(attempt+1))
		if attempt+1 >= installAttempts {
			s.settle(abandoned, nil, "", attempt+1)
			return
		}
		wait := backoff(attempt)
		s.st.InstallRetries++
		s.sc.Event2("snapshot", "install_retry", now, "attempt", int64(attempt+1), "backoff_ns", int64(wait))
		s.Core.Eng.After(wait, func() { s.tryInstall(attempt + 1) })
		return
	}
	s.life.SetVersion(int64(s.snapCount))
	s.life.Child("quantize", now, 0)
	s.life.Child("build", now, 0)
	s.Chan.SendToKernel(mod.Program.NumParams()*8, func() {
		m, err := s.Core.Install(mod)
		done := s.Core.Eng.Now()
		switch {
		case err == nil:
			s.life.Child("install", now, done-now)
			s.life.Child("activate", done, 0)
			s.settle(installed, m, name, 0)
		case errors.Is(err, ErrDegraded):
			// The module is registered: the degraded core holds it as the
			// standby, and activateParked switches to it on the first
			// post-recovery batch instead of rebuilding. The lifecycle stays
			// open until that catch-up activation.
			s.parked = m
			s.life.Mark("install_parked", done, "version", int64(s.snapCount))
			s.settle(parked, m, name, 0)
		default:
			// A rejected module (dimension change, nil program) cannot retry
			// into success; count the loss instead of dropping it silently.
			s.settle(rejected, nil, name, 0)
		}
	})
}

// closeLife resets the lifecycle span slot after the open root ended; the
// next processed batch opens the next version's root.
func (s *Service) closeLife() {
	s.life = nil
	s.lifeStaged = false
}
