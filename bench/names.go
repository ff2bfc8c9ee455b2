package main

// The metric names the benchmark emits. BENCHMARK.json lists the same names;
// bench_test.go fails when the two drift apart.

// Every bound is a quarter, the widest
// BENCHMARK.json allows. The reference box is a shared two-CPU virtual
// machine: over ten runs at seeds 1-10 the middle half of units_per_s spreads
// 3-14% of its median even with steal removed and the host's speed scaled out
// (README, "Host seconds"), part of it the seed's doing: the cost of a
// response on spineleaf-actors-d2 and the number of snapshot installs on
// adapt-slowpath (allocs_per_unit spreads 8% there) depend on the seed. At one
// seed, allocations repeat to 0.1%.
type e2eDef struct {
	name, unit string
	lower      bool    // lower is better
	bound      float64 // share of the base by which the median may worsen
	floor      float64 // absolute slack, in the metric's unit, for values near 0
	// contract marks the metrics every workload reports and that are never
	// 0; those are BENCHMARK.json's end_to_end list. failed_frac is 0 on a
	// healthy run and travels as the result line's attempted/failed; the
	// three query metrics exist on query-mix only and are listed per layer.
	contract bool
}

var e2eDefs = []e2eDef{
	{name: "setup_s", unit: "s", lower: true, bound: 0.25, floor: 0.1, contract: true},
	{name: "units_per_s", unit: "units/s", bound: 0.25, contract: true},
	{name: "allocs_per_unit", unit: "allocs", lower: true, bound: 0.25, floor: 0.001, contract: true},
	{name: "bytes_per_unit", unit: "B", lower: true, bound: 0.25, contract: true},
	{name: "peak_live_heap_mb", unit: "MB", lower: true, bound: 0.25, floor: 1, contract: true},
	{name: "failed_frac", unit: "ratio", lower: true},
	{name: "query_hit_ns_p50", unit: "ns", lower: true, bound: 0.25},
	{name: "query_miss_ns_p50", unit: "ns", lower: true, bound: 0.25},
	{name: "install_ms_p50", unit: "ms", lower: true, bound: 0.25},
}

type layerDef struct{ name, unit string }

// layerDefs is every per-layer metric, in the order it is printed. The layer
// is the part of the name before the first dot. A workload that does not
// reach a layer reports 0 for it.
var layerDefs = []layerDef{
	{"netsim.run_ms", "ms"}, {"netsim.self_ms", "ms"},
	{"netsim.slice_ms_p50", "ms"}, {"netsim.slice_ms_p95", "ms"},
	{"netsim.ns_per_pkt", "ns"}, {"netsim.link_tx_pkts", "count"},
	{"netsim.queue_drops", "count"}, {"netsim.loss_drops", "count"},
	{"netsim.queue_peak_bytes", "B"}, {"netsim.pending_peak", "count"},
	{"netsim.partitions", "count"}, {"netsim.lookahead_us", "us"},
	{"netsim.probe_event_ns", "ns"}, {"netsim.probe_link_pkt_ns", "ns"},
	{"netsim.probe_window_event_ns", "ns"},

	{"tcp.host_rx_ms", "ms"}, {"tcp.segments", "count"}, {"tcp.retransmits", "count"},
	{"tcp.timeouts", "count"}, {"tcp.retx_frac", "ratio"}, {"tcp.delivered_bytes", "B"},

	{"cc.onack_ms", "ms"}, {"cc.onack_calls", "count"}, {"cc.mi_queries", "count"},

	{"ksim.util", "ratio"}, {"ksim.softirq_share", "ratio"}, {"ksim.rejected", "count"},
	{"ksim.probe_submit_ns", "ns"},

	{"core.query_ms", "ms"}, {"core.queries", "count"}, {"core.cache_hit_frac", "ratio"},
	{"core.blocked_queries", "count"}, {"core.query_batch_ns_p99", "ns"},
	{"core.cached_flows_peak", "count"}, {"core.sweep_scan_max", "count"},
	{"core.installs", "count"}, {"core.install_ms", "ms"}, {"core.unloads", "count"},
	{"core.slowpath_self_ms", "ms"}, {"core.slowpath_updates", "count"},
	{"core.slowpath_skipped", "count"},
	{"query_hit_ns_p50", "ns"}, {"query_miss_ns_p50", "ns"}, {"install_ms_p50", "ms"},

	{"netlink.msgs", "count"}, {"netlink.batches", "count"}, {"netlink.msgs_per_batch", "count"},
	{"netlink.dropped", "count"}, {"netlink.deliver_ms", "ms"}, {"netlink.probe_msg_ns", "ns"},

	{"nn.adapt_ms", "ms"}, {"nn.adapt_calls", "count"}, {"nn.infer_ms", "ms"},
	{"nn.probe_train_step_us", "us"},

	{"quant.quantize_ms", "ms"}, {"quant.probe_infer_ns", "ns"},

	{"codegen.build_ms", "ms"}, {"codegen.build_allocs", "allocs"},

	{"fleet.versions_built", "count"}, {"fleet.member_installs", "count"},
	{"fleet.canary_pass", "count"}, {"fleet.canary_fail", "count"}, {"fleet.rollbacks", "count"},
	{"fleet.stale_peak", "count"}, {"fleet.probe_wave_us", "us"},

	{"obs.series", "count"}, {"obs.flight_ticks", "count"}, {"obs.scope_overhead_frac", "ratio"},
	{"obs.probe_counter_inc_ns", "ns"},

	{"actor.sessions", "count"}, {"actor.requests", "count"}, {"actor.responses", "count"},
	{"scenario.host_us_per_flow", "us"},

	{"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"}, {"go.goroutines_peak", "count"},
	{"run.wall_s", "s"}, {"run.cpu_per_wall", "ratio"}, {"trace.overhead_frac", "ratio"},
}

var workloads = []*workloadDef{
	{name: "dumbbell-cc", unit: "simulated packet transmitted on any link", hasScoped: true,
		why:     "Eight saturating LF-Aurora flows on a 1 Gbps dumbbell, no slow path: the event heap, links, tcp and ksim do nearly all the work.",
		premise: []string{"netsim.self_ms", "tcp.host_rx_ms"}, premiseWant: 0.60,
		setup: ccSetup, rep: ccRep},
	{name: "spineleaf-actors-d2", unit: "actor response completed",
		why:   "The same netsim/tcp layers on the two-domain windowed engine with many short app-limited streams; core, nn and netlink do nothing here.",
		setup: actorsSetup, rep: actorsRep},
	{name: "adapt-slowpath", unit: "slow-path sample processed",
		why:     "One flow on a 100 Mbps dumbbell with the full deployment loop: netlink batching, nn training, quantize, codegen and installs own the time.",
		premise: []string{"netlink.deliver_ms", "nn.infer_ms", "codegen.build_ms"}, premiseWant: 0.50,
		setup: adaptSetup, rep: adaptRep},
	{name: "query-mix", unit: "QueryModel call",
		why:     "No network: hits, misses, expiry and snapshot installs meet on one flow cache, so a gain for one that costs another shows.",
		premise: []string{"core.query_ms", "quant.quantize_ms", "codegen.build_ms", "core.install_ms"}, premiseWant: 0.80,
		setup: querySetup, rep: queryRep},
	{name: "fleet-rollout", unit: "member query served",
		why:   "Sixteen-member canary-gated rollout with a bad push: fleet control plane, per-epoch codegen and the obs registry the gate reads.",
		setup: fleetSetup, rep: fleetRep},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
