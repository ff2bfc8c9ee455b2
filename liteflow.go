// Package liteflow is the public API of LiteFlow-Go, a reproduction of
// "LiteFlow: Towards High-performance Adaptive Neural Networks for Kernel
// Datapath" (SIGCOMM 2022) on a simulated kernel datapath.
//
// LiteFlow decouples an adaptive neural network's control path into a
// kernel-space fast path for inference (integer-quantized snapshot modules,
// an inference router with active/standby switching and a flow-consistency
// cache) and a userspace slow path for model tuning (batched data delivery,
// convergence and fidelity gating, conservative snapshot installation).
//
// A minimal deployment looks like:
//
//	eng := liteflow.NewEngine()
//	lf := liteflow.NewCore(eng, nil, liteflow.DefaultCosts(), liteflow.DefaultConfig())
//	snap, _ := liteflow.BuildSnapshot(trainedNet, liteflow.DefaultQuantConfig(), "model0")
//	lf.RegisterModel(snap)                  // lf_register_model
//	lf.QueryModel(flowID, input, output)    // lf_query_model
//
// and the slow path attaches with NewSlowPath + a Freezer/Evaluator/Adapter
// implementation. See examples/quickstart for a complete program and
// DESIGN.md for the system inventory.
//
// # Construction
//
// Each component has one constructor (NewCore, NewHostCPU,
// NewNetlinkChannel, NewSlowPath), and each setting lives where it is read.
// NewCore, NewHostCPU and NewNetlinkChannel take one optional Option,
// WithScope, which attaches an observability Scope (metrics + tracing):
//
//	cfg := liteflow.DefaultConfig()
//	cfg.WatchdogWindow = 300 * liteflow.Millisecond // 0: no watchdog
//	lf := liteflow.NewCore(eng, cpu, costs, cfg, liteflow.WithScope(sc))
//	ch := liteflow.NewNetlinkChannel(eng, cpu, costs, nil, liteflow.WithScope(sc))
//	ch.SetFaults(inj) // deterministic fault injection
//	svc := liteflow.NewSlowPath(lf, ch, u, u, u)
//
// Config.WatchdogWindow arms the core's slow-path watchdog: if no batch
// reaches the service within the window the core degrades gracefully to its
// last-good snapshot (counted in liteflow_core_degraded_total) instead of
// serving stale standby state; while degraded, Activate is rejected with
// ErrDegraded so the last-good snapshot stays pinned until the slow path
// recovers. Channel.SetFaults attaches a deterministic, seed-driven fault
// injector (NewFaultInjector) to the netlink boundary: the channel drops,
// corrupts, delays and reorders messages from it, and the service behind the
// channel reads its outages and snapshot build failures from the same
// injector.
//
// # Errors
//
// Failures are classified with wrapped sentinel errors, tested via
// errors.Is: ErrSnapshotBuild (snapshot generation/validation failed, the
// install is retried with backoff), ErrMalformedSample (a netlink payload
// failed validation at the kernel boundary and was rejected).
package liteflow

import (
	"net/http"

	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// Option configures a constructor (see the package doc's "Construction"
// section). WithScope is the only one.
type Option = opt.Option

// Fault-injection and resilience types.
type (
	// FaultInjector is a deterministic, seed-driven fault source (message
	// drop/corruption, batch delay/reorder, snapshot build failures, service
	// outages, CPU spikes). A nil *FaultInjector is valid and injects
	// nothing.
	FaultInjector = fault.Injector
	// FaultProfile selects which fault classes fire and how often.
	FaultProfile = fault.Profile
	// FaultStats counts injected faults by kind.
	FaultStats = fault.Stats
)

// WithScope attaches an observability Scope to a constructor. Components
// that export gauges and share one scope need their own label sets (or their
// own obs.Fork): registering a second gauge view on one series panics.
func WithScope(sc Scope) Option { return opt.WithScope(sc) }

// NewFaultInjector builds a deterministic fault injector for profile p,
// seeded with seed. Same profile + seed ⇒ identical fault decisions, so
// faulted runs stay byte-reproducible. The Scope exports
// liteflow_fault_injected_total and per-fault trace events.
func NewFaultInjector(p FaultProfile, seed int64, sc Scope) *FaultInjector {
	return fault.New(p, seed, sc)
}

// FaultProfileByName maps a CLI-friendly name ("none", "netlink",
// "slowpath", "chaos") to a preset fault profile; ok is false for unknown
// names.
func FaultProfileByName(name string) (FaultProfile, bool) { return fault.ByName(name) }

// Sentinel errors re-exported from the internal packages; classify with
// errors.Is (see the package doc's "Errors" section).
var (
	ErrSnapshotBuild     = codegen.ErrSnapshotBuild
	ErrMalformedSample   = core.ErrMalformedSample
	ErrNoModel           = core.ErrNoModel
	ErrDimensionMismatch = core.ErrDimensionMismatch
	ErrDegraded          = core.ErrDegraded
)

// Core framework types (paper Table 1 and §4). Core's methods map onto the
// paper's API: RegisterModel = lf_register_model, QueryModel = lf_query_model
// (lf_register_io/lf_unregister_io are not modelled; see README).
type (
	// Core is the kernel-space LiteFlow core module.
	Core = core.Core
	// Config tunes the update policy (α threshold, stability window,
	// flow-cache timeout, quantization).
	Config = core.Config
	// Model is an installed NN snapshot with its router state.
	Model = core.Model
	// Service is the userspace slow-path service.
	Service = core.Service
	// Sample is one kernel-collected training record.
	Sample = core.Sample
	// Freezer, Evaluator and Adapter are the three user interfaces of the
	// userspace service (paper §4.1).
	Freezer   = core.Freezer
	Evaluator = core.Evaluator
	Adapter   = core.Adapter
	// BatchEvaluator is the optional block form of Evaluator the necessity
	// gate prefers; a user delegates it to Network.InferBatch.
	BatchEvaluator = core.BatchEvaluator
	// Stats counts core-module activity; ServiceStats the slow path's.
	Stats        = core.Stats
	ServiceStats = core.ServiceStats
	// FlowBackend adapts the core to per-flow congestion-control queries.
	FlowBackend = core.FlowBackend
)

// Substrate types needed to embed LiteFlow in a simulation.
type (
	// Engine is the discrete-event simulator clock all components share.
	Engine = netsim.Engine
	// FlowID identifies a transport flow (flow cache key).
	FlowID = netsim.FlowID
	// CPU models a host's finite processing capacity.
	CPU = ksim.CPU
	// Costs is the CPU cost calibration table.
	Costs = ksim.Costs
	// Channel is the batched kernel↔userspace netlink channel.
	Channel = netlink.Channel
	// Network is a float64 userspace MLP (the tunable slow-path model).
	Network = nn.Network
	// QuantConfig controls integer quantization of snapshots.
	QuantConfig = quant.Config
	// Program is an integer-only executable snapshot.
	Program = quant.Program
	// Snapshot is a generated module: source artifact (an activation unit
	// and a model unit; Source() assembles them into one file) plus
	// executable.
	Snapshot = codegen.Module
)

// Time is virtual simulation time in nanoseconds.
type Time = netsim.Time

// Re-exported durations.
const (
	Microsecond = netsim.Microsecond
	Millisecond = netsim.Millisecond
	Second      = netsim.Second
)

// NewEngine returns a fresh discrete-event engine.
func NewEngine() *Engine { return netsim.NewEngine() }

// NewHostCPU returns a CPU with the given core count attached to eng.
// WithScope exports per-category busy-time telemetry.
func NewHostCPU(eng *Engine, cores int, options ...Option) *CPU {
	return ksim.NewHostCPU(eng, cores, options...)
}

// DefaultCosts returns the calibrated CPU cost table (see internal/ksim).
func DefaultCosts() Costs { return ksim.DefaultCosts() }

// DefaultConfig returns the paper-calibrated framework configuration
// (α = 5%, T-independent gating defaults, 1000× output scaling).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultQuantConfig returns the default high-precision integer quantization
// settings (paper §3.1).
func DefaultQuantConfig() QuantConfig { return quant.DefaultConfig() }

// NewCore creates a LiteFlow core module on eng. cpu may be nil to disable
// CPU cost accounting. WithScope exports fast-path telemetry; a nonzero
// cfg.WatchdogWindow arms graceful degradation when the slow path stalls.
func NewCore(eng *Engine, cpu *CPU, costs Costs, cfg Config, options ...Option) *Core {
	return core.NewCore(eng, cpu, costs, cfg, options...)
}

// NewNetwork builds a float userspace network with the given layer sizes and
// activations, deterministically initialized from seed.
func NewNetwork(sizes []int, acts []Activation, seed int64) *Network {
	return nn.New(sizes, acts, seed)
}

// Activation selects a layer nonlinearity for NewNetwork.
type Activation = nn.Activation

// Supported activations.
const (
	Linear  = nn.Linear
	ReLU    = nn.ReLU
	Tanh    = nn.Tanh
	Sigmoid = nn.Sigmoid
)

// Quantize converts a trained float network into an integer-only program.
func Quantize(net *Network, cfg QuantConfig) *Program { return quant.Quantize(net, cfg) }

// BuildSnapshot quantizes net and generates a validated snapshot module —
// quantization, layer-wise code translation, and the compile check in one
// step (paper §3.1).
func BuildSnapshot(net *Network, cfg QuantConfig, name string) (*Snapshot, error) {
	return codegen.Build(quant.Quantize(net, cfg), name)
}

// GenerateSource renders the snapshot module of a quantized program as one
// self-contained, parser-checked source file (the lfgen tool's core).
func GenerateSource(p *Program, name string) (string, error) {
	mod, err := codegen.Build(p, name)
	if err != nil {
		return "", err
	}
	return mod.Source(), nil
}

// NewNetlinkChannel creates a batched netlink channel on the given host CPU.
// Pass the service's HandleBatch (or use NewSlowPath, which wires itself).
// WithScope exports batch-delivery telemetry; the channel's SetFaults
// attaches a fault injector for it and the slow path behind it.
func NewNetlinkChannel(eng *Engine, cpu *CPU, costs Costs, deliver func([]netlink.Message), options ...Option) *Channel {
	return netlink.NewChannel(eng, cpu, costs, deliver, options...)
}

// Message is one netlink record; EncodeSample/ParseSample convert samples.
type Message = netlink.Message

// EncodeSample packs a training sample for the kernel-side batch buffer.
func EncodeSample(s Sample) Message { return core.EncodeSample(s) }

// ParseSample unpacks a batched record, returning an error wrapping
// ErrMalformedSample for payloads that fail kernel-boundary validation.
func ParseSample(m Message) (Sample, error) { return core.ParseSample(m) }

// NewSlowPath wires the userspace slow path to a core and its channel. The
// service exports under the core's Scope; the channel's fault injector
// (Channel.SetFaults) injects snapshot build failures and service outages. A
// failed build is retried twice, after 50 ms and then 100 ms of virtual time.
func NewSlowPath(c *Core, ch *Channel, f Freezer, e Evaluator, a Adapter) *Service {
	return core.NewSlowPath(c, ch, f, e, a)
}

// NewFlowBackend returns a fast-path inference backend for one flow,
// compatible with the cc package's Backend interface.
func NewFlowBackend(c *Core, flow FlowID) *FlowBackend {
	return core.NewFlowBackend(c, flow)
}

// Observability (internal/obs): a metrics registry with Prometheus text
// export and a virtual-time event tracer with Chrome trace-event export. A
// zero-value Scope is a no-op: instruments still count, nothing is exported.
type (
	// Scope carries the registry/tracer pair (plus labels) through
	// constructors; the zero value disables export.
	Scope = obs.Scope
	// MetricsRegistry collects named counters, gauges and histograms.
	MetricsRegistry = obs.Registry
	// Tracer records structured simulation events in a bounded ring.
	Tracer = obs.Tracer
	// MetricLabel is one key=value metric dimension.
	MetricLabel = obs.Label
	// FlightRecorder samples every registry series into per-series ring
	// buffers on a virtual-time tick and answers windowed rate/level
	// queries (Window, Delta) — the canary-gate primitive.
	FlightRecorder = obs.FlightRecorder
	// FlightWindow is a closed virtual-time interval for FlightRecorder
	// queries.
	FlightWindow = obs.TimeWindow
	// SpanTracer mints snapshot-lifecycle spans keyed by snapshot version;
	// see internal/obs and DESIGN.md §4g.
	SpanTracer = obs.SpanTracer
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer returns an event tracer retaining the last capacity events
// (<= 0 selects the default capacity).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewFlightRecorder returns a flight recorder retaining up to capacity
// points per series (<= 0 selects the default capacity). Drive it from the
// simulation with Sample(reg, now) on a fixed virtual-time tick.
func NewFlightRecorder(capacity int) *FlightRecorder { return obs.NewFlightRecorder(capacity) }

// NewScope binds a registry and tracer (either may be nil) into a Scope to
// pass via WithScope to NewCore, NewHostCPU, NewNetlinkChannel and the
// topology builders.
func NewScope(reg *MetricsRegistry, tr *Tracer) Scope { return obs.New(reg, tr) }

// NewTelemetryHandler serves /metrics (Prometheus text format),
// /debug/trace (Chrome trace-event JSON; ?format=jsonl for JSON lines) and
// /debug/flight (JSON lines) for the given registry, tracer and flight
// recorder; any argument may be nil, and its endpoint then reports 404.
// Component metrics are read from the components' own fields without
// synchronization, so serve /metrics only after the simulation run returns.
func NewTelemetryHandler(reg *MetricsRegistry, tr *Tracer, flight *FlightRecorder) http.Handler {
	return obs.NewHTTPHandler(reg, tr, flight)
}
