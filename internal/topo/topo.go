// Package topo builds the simulated topologies of the paper's evaluation:
// the dumbbell testbed analog used by the congestion-control experiments and
// the 2×2 spine–leaf fabric used by flow scheduling (32 hosts) and load
// balancing (8 hosts).
package topo

import (
	"strconv"

	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

// Node ID layout: hosts are numbered 0..H−1, leaves LeafIDBase+i, spines
// SpineIDBase+j. Keeping the spaces disjoint makes explicit paths
// unambiguous.
const (
	LeafIDBase  = 1000
	SpineIDBase = 2000
)

// SpineLeafOpts configures a spine–leaf fabric.
type SpineLeafOpts struct {
	Spines       int
	Leaves       int
	HostsPerLeaf int

	HostLinkBps   int64
	FabricLinkBps int64
	HostDelay     netsim.Time
	FabricDelay   netsim.Time

	// QueueBytes is the per-port buffer; ECNThresholdBytes enables DCTCP
	// marking when positive. UsePrioQueues switches every port to strict
	// priority queues (flow-scheduling experiments).
	QueueBytes        int
	ECNThresholdBytes int
	UsePrioQueues     bool
}

// DefaultSpineLeafOpts is the paper's 2×2 fabric with the given host count
// per leaf: 10 Gbps host links, 40 Gbps fabric links, shallow ECN-marked
// buffers, ~25 µs propagation per hop (data-center scale).
func DefaultSpineLeafOpts(hostsPerLeaf int) SpineLeafOpts {
	return SpineLeafOpts{
		Spines: 2, Leaves: 2, HostsPerLeaf: hostsPerLeaf,
		HostLinkBps: 10e9, FabricLinkBps: 40e9,
		HostDelay: 5 * netsim.Microsecond, FabricDelay: 5 * netsim.Microsecond,
		QueueBytes: 400_000, ECNThresholdBytes: 90_000,
	}
}

// SpineLeaf is a wired fabric with per-destination ECMP routing.
type SpineLeaf struct {
	Eng    *netsim.Engine
	Opts   SpineLeafOpts
	Hosts  []*tcp.Host
	Leaves []*netsim.Switch
	Spines []*netsim.Switch
}

// BuildSpineLeaf builds and wires the fabric. Like BuildDumbbell, every node
// gets its own partition and every link is bound to its receiving partition —
// no-ops on a classic engine, a conservative lookahead of the host/fabric
// link delay on a partitioned one. The fabric itself has no scoped telemetry
// (per-host CPU scopes come from ProvisionCPUs).
func BuildSpineLeaf(eng *netsim.Engine, opts SpineLeafOpts) *SpineLeaf {
	t := &SpineLeaf{Eng: eng, Opts: opts}

	newQueue := func() netsim.Queue {
		if opts.UsePrioQueues {
			return netsim.NewPrioQueue(opts.QueueBytes, opts.ECNThresholdBytes)
		}
		if opts.ECNThresholdBytes > 0 {
			return netsim.NewECNQueue(opts.QueueBytes, opts.ECNThresholdBytes)
		}
		return netsim.NewDropTail(opts.QueueBytes)
	}

	leafEng := make([]*netsim.Engine, opts.Leaves)
	spineEng := make([]*netsim.Engine, opts.Spines)
	for l := 0; l < opts.Leaves; l++ {
		t.Leaves = append(t.Leaves, netsim.NewSwitch(LeafIDBase+l))
		leafEng[l] = eng.AddPartition()
	}
	for s := 0; s < opts.Spines; s++ {
		t.Spines = append(t.Spines, netsim.NewSwitch(SpineIDBase+s))
		spineEng[s] = eng.AddPartition()
	}

	// Hosts and host↔leaf links.
	for l := 0; l < opts.Leaves; l++ {
		leaf := t.Leaves[l]
		for k := 0; k < opts.HostsPerLeaf; k++ {
			id := l*opts.HostsPerLeaf + k
			hEng := eng.AddPartition()
			h := tcp.NewHost(hEng, id)
			up := netsim.NewLink(hEng, leaf, opts.HostLinkBps, opts.HostDelay, newQueue()).BindRemote(leafEng[l])
			down := netsim.NewLink(leafEng[l], h, opts.HostLinkBps, opts.HostDelay, newQueue()).BindRemote(hEng)
			h.SetEgress(up)
			leaf.AddPort(id, down)
			leaf.AddRoute(id, id)
			t.Hosts = append(t.Hosts, h)
		}
	}

	// Leaf↔spine links and inter-leaf routing.
	for l, leaf := range t.Leaves {
		for s, spine := range t.Spines {
			up := netsim.NewLink(leafEng[l], spine, opts.FabricLinkBps, opts.FabricDelay, newQueue()).BindRemote(spineEng[s])
			down := netsim.NewLink(spineEng[s], leaf, opts.FabricLinkBps, opts.FabricDelay, newQueue()).BindRemote(leafEng[l])
			leaf.AddPort(SpineIDBase+s, up)
			spine.AddPort(LeafIDBase+l, down)
		}
	}
	spineIDs := make([]int, opts.Spines)
	for s := range spineIDs {
		spineIDs[s] = SpineIDBase + s
	}
	for l, leaf := range t.Leaves {
		// Remote hosts: ECMP across all spines.
		for hid := range t.Hosts {
			if t.LeafOf(hid) != l {
				leaf.AddRoute(hid, spineIDs...)
			}
		}
	}
	for _, spine := range t.Spines {
		for hid := range t.Hosts {
			spine.AddRoute(hid, LeafIDBase+t.LeafOf(hid))
		}
	}
	return t
}

// LeafOf returns the leaf index hosting host id.
func (t *SpineLeaf) LeafOf(hostID int) int { return hostID / t.Opts.HostsPerLeaf }

// SameLeaf reports whether two hosts share a leaf (no fabric crossing).
func (t *SpineLeaf) SameLeaf(a, b int) bool { return t.LeafOf(a) == t.LeafOf(b) }

// PathVia returns the explicit path pinning traffic from src to dst through
// spine index s (XPath-style). Same-leaf pairs need no pinning and get nil.
func (t *SpineLeaf) PathVia(src, dst, spine int) []int {
	if t.SameLeaf(src, dst) {
		return nil
	}
	return []int{SpineIDBase + spine}
}

// ProvisionCPUs gives every host a CPU with the given core count and cost
// table, attached to the host's own partition view. opt.WithScope labels each
// host's CPU telemetry with host="<id>".
func (t *SpineLeaf) ProvisionCPUs(cores int, costs ksim.Costs, options ...opt.Option) {
	scope := opt.Resolve(options).Scope
	for i, h := range t.Hosts {
		hsc := h.Eng.PartitionScope(scope.With(obs.Label{Key: "host", Value: strconv.Itoa(i)}))
		h.AttachCPU(ksim.NewHostCPU(h.Eng, cores, opt.WithScope(hsc)), costs)
	}
}

// Dumbbell is the testbed analog used by the CC experiments: sender hosts
// and one UDP host on the left, receiver hosts on the right, all crossing
// one bottleneck link.
type Dumbbell struct {
	Eng       *netsim.Engine
	Senders   []*tcp.Host
	Receivers []*tcp.Host
	UDPHost   *tcp.Host
	Left      *netsim.Switch
	Right     *netsim.Switch
	// Bottleneck is the left→right link all data crosses.
	Bottleneck *netsim.Link
}

// DumbbellOpts configures the dumbbell.
type DumbbellOpts struct {
	Flows           int   // sender/receiver pairs
	AccessBps       int64 // per-host access links
	BottleneckBps   int64
	AccessDelay     netsim.Time // one-way, per access link
	BottleneckDelay netsim.Time
	BufferBytes     int // bottleneck buffer
}

// TestbedOpts reproduces §2.2's testbed: 1 Gbps receiver bottleneck, ~10 ms
// RTT via netem, 150 KB buffer.
func TestbedOpts(flows int) DumbbellOpts {
	return DumbbellOpts{
		Flows:           flows,
		AccessBps:       100e9, // 100 Gbps NICs
		BottleneckBps:   1e9,
		AccessDelay:     1250 * netsim.Microsecond,
		BottleneckDelay: 2500 * netsim.Microsecond,
		BufferBytes:     150_000,
	}
}

// BuildDumbbell builds the dumbbell. Sender host IDs are 0..F−1, receivers
// F..2F−1, the UDP host is 2F. opt.WithScope exports drop/ECN telemetry for
// the two shared links, labelled link="bottleneck" and link="back".
//
// Every node (each host and each switch) is placed in its own partition and
// every link is bound to its receiving partition, unconditionally: on a
// classic engine both calls are no-ops, and on a partitioned engine
// (netsim.NewParallelEngine) the builder yields a conservative lookahead of
// the access-link delay. The partition layout depends only on the topology.
func BuildDumbbell(eng *netsim.Engine, opts DumbbellOpts, options ...opt.Option) *Dumbbell {
	scope := opt.Resolve(options).Scope
	d := &Dumbbell{Eng: eng}
	d.Left = netsim.NewSwitch(LeafIDBase)
	d.Right = netsim.NewSwitch(LeafIDBase + 1)
	leftEng := eng.AddPartition()
	rightEng := eng.AddPartition()

	d.Bottleneck = netsim.NewLink(leftEng, d.Right, opts.BottleneckBps, opts.BottleneckDelay,
		netsim.NewDropTail(opts.BufferBytes),
		leftEng.PartitionScope(scope.With(obs.Label{Key: "link", Value: "bottleneck"}))).BindRemote(rightEng)
	back := netsim.NewLink(rightEng, d.Left, opts.BottleneckBps, opts.BottleneckDelay,
		netsim.NewDropTail(1<<22),
		rightEng.PartitionScope(scope.With(obs.Label{Key: "link", Value: "back"}))).BindRemote(leftEng)
	d.Left.AddPort(LeafIDBase+1, d.Bottleneck)
	d.Right.AddPort(LeafIDBase, back)

	attach := func(id int, sw *netsim.Switch, swEng *netsim.Engine) *tcp.Host {
		hEng := eng.AddPartition()
		h := tcp.NewHost(hEng, id)
		up := netsim.NewLink(hEng, sw, opts.AccessBps, opts.AccessDelay, netsim.NewDropTail(1<<22)).BindRemote(swEng)
		down := netsim.NewLink(swEng, h, opts.AccessBps, opts.AccessDelay, netsim.NewDropTail(1<<22)).BindRemote(hEng)
		h.SetEgress(up)
		sw.AddPort(id, down)
		sw.AddRoute(id, id)
		return h
	}

	for i := 0; i < opts.Flows; i++ {
		d.Senders = append(d.Senders, attach(i, d.Left, leftEng))
		d.Receivers = append(d.Receivers, attach(opts.Flows+i, d.Right, rightEng))
	}
	d.UDPHost = attach(2*opts.Flows, d.Left, leftEng)

	// Cross routes: left switch reaches right-side hosts over the
	// bottleneck and vice versa.
	for i := 0; i < opts.Flows; i++ {
		d.Left.AddRoute(opts.Flows+i, LeafIDBase+1)
		d.Right.AddRoute(i, LeafIDBase)
	}
	d.Right.AddRoute(2*opts.Flows, LeafIDBase)
	return d
}

// ProvisionCPUs gives every dumbbell host a CPU (the paper's 4-core servers).
// opt.WithScope labels each host's CPU telemetry with host="<id>". Each CPU
// is attached to its host's own partition view so completions execute in the
// host's partition; trace emission goes through the partition's shard.
func (d *Dumbbell) ProvisionCPUs(cores int, costs ksim.Costs, options ...opt.Option) {
	scope := opt.Resolve(options).Scope
	attach := func(h *tcp.Host) {
		hsc := h.Eng.PartitionScope(scope.With(obs.Label{Key: "host", Value: strconv.Itoa(h.ID)}))
		h.AttachCPU(ksim.NewHostCPU(h.Eng, cores, opt.WithScope(hsc)), costs)
	}
	for _, h := range d.Senders {
		attach(h)
	}
	for _, h := range d.Receivers {
		attach(h)
	}
	attach(d.UDPHost)
}

// QueueBytes returns the bottleneck's current backlog — the Figure 1b
// measurement.
func (d *Dumbbell) QueueBytes() int { return d.Bottleneck.Queue().Bytes() }
