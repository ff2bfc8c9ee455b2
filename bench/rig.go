package main

import (
	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
	"github.com/liteflow-sim/liteflow/internal/tcp"
	"github.com/liteflow-sim/liteflow/internal/topo"
)

const slice = 10 * netsim.Millisecond

// Decorators the traced run wires at the boundaries that are interfaces.

// tapCC times OnAck, the call from tcp into cc.
type tapCC struct {
	tcp.CongestionControl
	tr *tracer
}

func (c *tapCC) OnAck(a tcp.AckInfo) {
	c.tr.begin(spOnAck, true)
	c.CongestionControl.OnAck(a)
	c.tr.end()
}

// tapBackend times Query, the call from cc into core. FlowBackend replies
// inline, so the controller applying the action is inside the span.
type tapBackend struct {
	inner cc.Backend
	tr    *tracer
}

func (b *tapBackend) Query(state []float64, reply func(float64)) {
	b.tr.begin(spQuery, false)
	b.inner.Query(state, reply)
	b.tr.end()
}

// tapHandler times Host.HandlePacket on a host's down-link. With a CPU
// attached that call is the ksim submit and the kernel charge; the tcp state
// machine runs later, from the CPU's completion event, where no boundary is
// reachable from outside, and stays in netsim's self time.
type tapHandler struct {
	inner netsim.Handler
	tr    *tracer
}

func (h *tapHandler) HandlePacket(p *netsim.Packet) {
	h.tr.begin(spHostRx, true)
	h.inner.HandlePacket(p)
	h.tr.end()
}

// bell is a dumbbell with 4-core hosts, built the way examples/congestion
// and cmd/lfsim build theirs, plus the handles the benchmark reads counters
// from.
type bell struct {
	eng   *netsim.Engine
	d     *topo.Dumbbell
	costs ksim.Costs
	hosts []*tcp.Host    // senders, receivers, UDP host
	links []*netsim.Link // every link of the topology

	// Baselines taken by mark, and peaks seen at slice boundaries since.
	pkts0, queue0, loss0   int64
	queuePeak, pendingPeak int
}

func newBell(opts topo.DumbbellOpts, sc obs.Scope, tr *tracer) *bell {
	b := &bell{eng: netsim.NewEngine(), costs: ksim.DefaultCosts()}
	b.d = topo.BuildDumbbell(b.eng, opts, opt.WithScope(sc))
	b.d.ProvisionCPUs(4, b.costs, opt.WithScope(sc))
	b.links = []*netsim.Link{b.d.Bottleneck, b.d.Right.Port(topo.LeafIDBase)}
	attach := func(h *tcp.Host, sw *netsim.Switch) {
		down := sw.Port(h.ID)
		if tr != nil {
			down.SetTarget(&tapHandler{inner: h, tr: tr})
		}
		b.hosts = append(b.hosts, h)
		b.links = append(b.links, h.Egress(), down)
	}
	for _, h := range b.d.Senders {
		attach(h, b.d.Left)
	}
	for _, h := range b.d.Receivers {
		attach(h, b.d.Right)
	}
	attach(b.d.UDPHost, b.d.Left)
	return b
}

func (b *bell) txPackets() int64 {
	var n int64
	for _, l := range b.links {
		n += l.TxPackets()
	}
	return n
}

// mark opens the timed region: CPU accounting restarts, as the experiments
// do after warm-up, and the counter baselines are taken.
func (b *bell) mark() {
	for _, h := range b.hosts {
		h.CPU.ResetAccounting()
	}
	b.pkts0 = b.txPackets()
	b.queue0, b.loss0 = b.drops()
	b.queuePeak, b.pendingPeak = 0, 0
}

// packets is the workload's unit count: packets transmitted on any link
// since mark.
func (b *bell) packets() int64 { return b.txPackets() - b.pkts0 }

func (b *bell) drops() (queue, loss int64) {
	for _, l := range b.links {
		if q, ok := l.Queue().(*netsim.DropTail); ok {
			queue += int64(q.Drops())
		}
		loss += l.LossDrops()
	}
	return queue, loss
}

// runSlices advances the engine to end in 10 ms slices of virtual time. At
// each boundary it reads the cheap public gauges; on the memory rep it also
// samples the live heap every 20th slice.
func (b *bell) runSlices(end netsim.Time, e *env) {
	for i := 1; b.eng.Now() < end; i++ {
		e.tr.begin(spSlice, false)
		b.eng.RunUntil(b.eng.Now() + slice)
		e.tr.end()
		if q := b.d.QueueBytes(); q > b.queuePeak {
			b.queuePeak = q
		}
		if p := b.eng.Pending(); p > b.pendingPeak {
			b.pendingPeak = p
		}
		if i%20 == 0 {
			e.heap.sample()
		}
	}
}

// cpuLayer reports the ksim metrics over all hosts and folds the per-category
// busy times into the digest.
func (b *bell) cpuLayer(layer map[string]float64, dg digest) {
	var util, soft, busy float64
	var rejected int64
	for _, h := range b.hosts {
		r := h.CPU.Report()
		util += r.Utilization
		soft += float64(r.SoftIRQTime)
		busy += float64(r.UserTime + r.KernelTime + r.SoftIRQTime)
		rejected += r.Rejected
		dg.i64(int64(r.UserTime), int64(r.KernelTime), int64(r.SoftIRQTime), r.Rejected)
	}
	layer["ksim.util"] = util / float64(len(b.hosts))
	layer["ksim.softirq_share"] = ratio(soft, busy)
	layer["ksim.rejected"] = float64(rejected)
}

// netsimLayer reports what the engine and links expose, and the traced
// slices with the per-packet and per-query spans under them.
func (b *bell) netsimLayer(layer map[string]float64, dg digest, e *env) {
	pkts := b.packets()
	q, l := b.drops()
	dg.i64(pkts, q, l)
	layer["netsim.link_tx_pkts"] = float64(pkts)
	layer["netsim.queue_drops"] = float64(q - b.queue0)
	layer["netsim.loss_drops"] = float64(l - b.loss0)
	layer["netsim.queue_peak_bytes"] = float64(b.queuePeak)
	layer["netsim.pending_peak"] = float64(b.pendingPeak)
	layer["netsim.partitions"] = float64(b.eng.Partitions())
	layer["netsim.lookahead_us"] = float64(b.eng.Lookahead()) / 1e3
	run := e.tr.total(spSlice)
	layer["netsim.run_ms"] = ms(run.incl)
	layer["netsim.self_ms"] = ms(run.self)
	layer["netsim.ns_per_pkt"] = ratio(float64(run.self), float64(pkts))
	if d := e.tr.durations(spSlice, e.rep); len(d) > 0 {
		layer["netsim.slice_ms_p50"] = percentile(d, 0.50)
		layer["netsim.slice_ms_p95"] = percentile(d, 0.95)
	}
	layer["tcp.host_rx_ms"] = ms(e.tr.total(spHostRx).incl)
	layer["cc.onack_ms"] = ms(e.tr.total(spOnAck).incl)
	layer["cc.onack_calls"] = float64(e.tr.total(spOnAck).n)
	layer["core.query_ms"] = ms(e.tr.total(spQuery).incl)
}

// flowLayer reports what the senders, receivers and controllers of a rig's
// flows counted over the timed region.
func flowLayer(layer map[string]float64, segs, retx, timeouts, delivered, mis int64) {
	layer["tcp.segments"] = float64(segs)
	layer["tcp.retransmits"] = float64(retx)
	layer["tcp.timeouts"] = float64(timeouts)
	layer["tcp.retx_frac"] = ratio(float64(retx), float64(segs))
	layer["tcp.delivered_bytes"] = float64(delivered)
	layer["cc.mi_queries"] = float64(mis)
}

// sumCores adds up the public counters of the given cores.
func sumCores(cores ...*core.Core) core.Stats {
	var s core.Stats
	for _, c := range cores {
		st := c.Stats()
		s.Queries += st.Queries
		s.CacheHits += st.CacheHits
		s.CacheMisses += st.CacheMisses
		s.BlockedQueries += st.BlockedQueries
		s.Installs += st.Installs
		s.Unloads += st.Unloads
		s.Switches += st.Switches
		s.SweptEntries += st.SweptEntries
	}
	return s
}

// coreLayer reports the core counters accrued between two readings.
func coreLayer(layer map[string]float64, dg digest, a, b core.Stats) {
	hits, misses := b.CacheHits-a.CacheHits, b.CacheMisses-a.CacheMisses
	layer["core.queries"] = float64(b.Queries - a.Queries)
	layer["core.cache_hit_frac"] = ratio(float64(hits), float64(hits+misses))
	layer["core.blocked_queries"] = float64(b.BlockedQueries - a.BlockedQueries)
	layer["core.installs"] = float64(b.Installs - a.Installs)
	layer["core.unloads"] = float64(b.Unloads - a.Unloads)
	dg.i64(b.Queries, b.CacheHits, b.CacheMisses, b.BlockedQueries, b.Installs, b.Unloads, b.Switches, b.SweptEntries)
}
