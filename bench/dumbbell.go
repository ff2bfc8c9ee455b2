package main

import (
	"fmt"
	"strconv"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
	"github.com/liteflow-sim/liteflow/internal/quant"
	"github.com/liteflow-sim/liteflow/internal/tcp"
	"github.com/liteflow-sim/liteflow/internal/topo"
)

// dumbbell-cc: eight LF-Aurora flows over a congested 1 Gbps dumbbell with
// no slow path, so the packet path does nearly all the work.

const ccFlows = 8

type ccSizes struct {
	pretrain     int
	warmup, span netsim.Time
}

func ccSize(quick bool) ccSizes {
	if quick {
		return ccSizes{pretrain: 40, warmup: 100 * netsim.Millisecond, span: 100 * netsim.Millisecond}
	}
	return ccSizes{pretrain: 400, warmup: netsim.Second, span: 4 * netsim.Second}
}

// ccSetup pretrains the Aurora policy and builds its first snapshot, which
// every rep's cores then load.
func ccSetup(seed int64, quick bool) (any, error) {
	net := cc.NewAuroraNet(seed)
	cc.Pretrain(net, ccSize(quick).pretrain, seed+1)
	mod, err := codegen.Build(quant.Quantize(net, core.DefaultConfig().Quant), "aurora")
	if err != nil {
		return nil, fmt.Errorf("first snapshot: %w", err)
	}
	return mod, nil
}

func ccRep(state any, e *env) (*repOut, error) {
	mod := state.(*codegen.Module)
	sz := ccSize(e.quick)
	var sc obs.Scope
	var reg *obs.Registry
	if e.scope {
		reg = obs.NewRegistry()
		sc = obs.New(reg, obs.NewTracer(0))
	}
	b := newBell(topo.TestbedOpts(ccFlows), sc, e.tr)

	// Bursty background UDP averaging 0.1 Gbps keeps the bottleneck
	// congested and moving, as in examples/congestion.
	udp := tcp.NewBurstyUDP(tcp.NewUDPSource(b.d.UDPHost, 9999, b.d.Receivers[0].ID, 100e6),
		20e6, 180e6, 200*netsim.Millisecond)
	udp.Start()
	defer udp.Stop()

	cfg := core.DefaultConfig()
	cfg.FlowCacheTimeout = 0 // long-lived flows
	// The seed picks where the flow-ID block starts; the hosts' cores hash
	// flow IDs into cache shards.
	flowBase := netsim.FlowID(1 + (e.seed%1000)*1000)
	var (
		cores   []*core.Core
		ctrls   []*cc.MIController
		senders []*tcp.Sender
		rcvs    []*tcp.Receiver
	)
	for i := 0; i < ccFlows; i++ {
		snd, rcv := b.d.Senders[i], b.d.Receivers[i]
		// One core per host, its telemetry labelled like the host's CPU.
		lf := core.NewCore(snd.Eng, snd.CPU, b.costs, cfg,
			opt.WithScope(sc.With(obs.Label{Key: "host", Value: strconv.Itoa(snd.ID)})))
		if _, err := lf.RegisterModel(mod); err != nil {
			return nil, err
		}
		flow := flowBase + netsim.FlowID(i)
		var backend cc.Backend = core.NewFlowBackend(lf, flow)
		if e.tr != nil {
			backend = &tapBackend{inner: backend, tr: e.tr}
		}
		m := cc.NewMIController(snd.Eng, backend, 500e6)
		var ctrl tcp.CongestionControl = m
		if e.tr != nil {
			ctrl = &tapCC{CongestionControl: m, tr: e.tr}
		}
		s := tcp.NewSender(snd, flow, rcv.ID, 0, ctrl)
		r := tcp.NewReceiver(rcv, flow, snd.ID)
		s.Start()
		cores, ctrls, senders, rcvs = append(cores, lf), append(ctrls, m), append(senders, s), append(rcvs, r)
	}

	b.eng.RunUntil(sz.warmup)

	delivered0 := make([]int64, ccFlows)
	var segs0, mis0, retx0, timeouts0 int64
	for i := range rcvs {
		delivered0[i] = rcvs[i].UniqueBytes()
		segs0 += senders[i].Host.Egress().TxPackets()
		mis0 += ctrls[i].MIs
		retx0 += senders[i].Retransmits
		timeouts0 += senders[i].Timeouts
	}
	core0 := sumCores(cores...)
	b.mark()
	e.tr.startRep(e.rep)
	m := startMeter()
	b.runSlices(sz.warmup+sz.span, e)
	out := &repOut{m: m.stop(), units: b.packets(), layer: map[string]float64{}}
	e.tr.stopRep()

	for _, c := range ctrls {
		c.Stop()
	}
	for _, c := range cores {
		c.StopSweeper()
	}

	dg := newDigest()
	var delivered, segs, mis, retx, timeouts int64
	for i := range rcvs {
		d := rcvs[i].UniqueBytes() - delivered0[i]
		delivered += d
		segs += senders[i].Host.Egress().TxPackets()
		mis += ctrls[i].MIs
		retx += senders[i].Retransmits
		timeouts += senders[i].Timeouts
		dg.i64(d, senders[i].Retransmits, senders[i].Timeouts)
	}
	segs, retx, timeouts = segs-segs0, retx-retx0, timeouts-timeouts0
	b.netsimLayer(out.layer, dg, e)
	b.cpuLayer(out.layer, dg)
	coreLayer(out.layer, dg, core0, sumCores(cores...))
	flowLayer(out.layer, segs, retx, timeouts, delivered, mis-mis0)
	if reg != nil {
		out.layer["obs.series"] = float64(countSeries(reg))
	}
	out.digest = dg.sum()

	gbps := float64(delivered*8) / float64(sz.span)
	if !e.quick {
		// With 0.1 Gbps of background UDP the eight flows should fill most
		// of what is left of the 1 Gbps bottleneck.
		out.check("goodput", gbps >= 0.80 && gbps <= 0.95, "aggregate goodput %.3f Gbps outside [0.80, 0.95]", gbps)
	} else {
		out.check("goodput", gbps > 0, "no goodput")
	}
	return out, nil
}
