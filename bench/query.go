package main

import (
	"fmt"
	"math/rand"
	"time"

	liteflow "github.com/liteflow-sim/liteflow"
	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// query-mix: no network. One core with the Aurora 30-32-16-1 snapshot and a
// resident flow population; batches of 64 QueryModel calls that are either
// all hits on a hot set or all misses on fresh flow IDs, 9:1; virtual time
// advanced between batches so the timing-wheel sweeper evicts the idle
// residents and the earlier misses; and a perturbed snapshot installed every
// tenth of the op, so reads, inserts, expiry and writes meet on one cache.

const (
	queryBatch   = 64
	queryTimeout = 50 * netsim.Millisecond
)

type querySizes struct {
	resident, hot int
	queries       int // per op
	tickEvery     int // queries between 1 ms advances of virtual time
	installs      int
}

func querySize(quick bool) querySizes {
	if quick {
		return querySizes{resident: 5000, hot: 500, queries: 64 * 400, tickEvery: 256, installs: 4}
	}
	return querySizes{resident: 100_000, hot: 10_000, queries: 1_000_000 / queryBatch * queryBatch,
		tickEvery: 4096, installs: 10}
}

type queryRig struct {
	eng    *netsim.Engine
	lf     *liteflow.Core
	models []*core.Model
	in     []int64
	out    []int64
}

// newQueryRig builds the core, loads the snapshot and makes flows 1..resident
// resident; the first `hot` of them are the hot set.
func newQueryRig(mod *codegen.Module, sz querySizes) (*queryRig, error) {
	eng := liteflow.NewEngine()
	cfg := liteflow.DefaultConfig()
	cfg.FlowCacheTimeout = queryTimeout
	r := &queryRig{eng: eng, lf: liteflow.NewCore(eng, nil, liteflow.DefaultCosts(), cfg),
		in: make([]int64, cc.StateDim), out: make([]int64, 1)}
	m, err := r.lf.RegisterModel(mod)
	if err != nil {
		return nil, err
	}
	r.models = append(r.models, m)
	for f := 1; f <= sz.resident; f++ {
		if err := r.lf.QueryModel(netsim.FlowID(f), r.in, r.out); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// refs is the flow-cache reference count summed over every snapshot the rig
// ever registered; unloaded ones hold none.
func (r *queryRig) refs() int {
	n := 0
	for _, m := range r.models {
		n += m.Refs()
	}
	return n
}

type queryState struct {
	net *nn.Network
	mod *codegen.Module
}

// querySetup pretrains the policy, builds the first snapshot and prefills one
// rig, the work a user pays before the first query can be served.
func querySetup(seed int64, quick bool) (any, error) {
	net := cc.NewAuroraNet(seed)
	pre := 100
	if quick {
		pre = 10
	}
	cc.Pretrain(net, pre, seed+1)
	mod, err := liteflow.BuildSnapshot(net, liteflow.DefaultQuantConfig(), "aurora")
	if err != nil {
		return nil, fmt.Errorf("first snapshot: %w", err)
	}
	rig, err := newQueryRig(mod, querySize(quick))
	if err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	rig.lf.StopSweeper()
	return &queryState{net: net, mod: mod}, nil
}

func queryRep(state any, e *env) (*repOut, error) {
	st := state.(*queryState)
	sz := querySize(e.quick)
	rig, err := newQueryRig(st.mod, sz)
	if err != nil {
		return nil, err
	}
	lf, eng := rig.lf, rig.eng
	rng := rand.New(rand.NewSource(e.seed))
	for i := range rig.in {
		rig.in[i] = rng.Int63n(2001) - 1000
	}
	nextFresh := netsim.FlowID(sz.resident + 1)
	batches := sz.queries / queryBatch
	out := &repOut{layer: map[string]float64{}, units: int64(sz.queries),
		hitNs: make([]float64, 0, batches), missNs: make([]float64, 0, batches/8)}
	var cachedPeak int
	var quantNs, buildNs, installNs int64
	var buildAllocs uint64
	refsOK, refsDetail := true, ""

	core0 := lf.Stats()
	e.tr.startRep(e.rep)
	m := startMeter()
	for q, sinceTick, version := 0, 0, 0; q < sz.queries; q += queryBatch {
		miss := rng.Intn(10) == 0
		e.tr.begin(spQuery, false)
		t0 := time.Now()
		if miss {
			for i := 0; i < queryBatch; i++ {
				if err := lf.QueryModel(nextFresh, rig.in, rig.out); err != nil {
					return nil, err
				}
				nextFresh++
			}
		} else {
			for i := 0; i < queryBatch; i++ {
				flow := netsim.FlowID(1 + rng.Intn(sz.hot))
				if err := lf.QueryModel(flow, rig.in, rig.out); err != nil {
					return nil, err
				}
			}
		}
		ns := float64(time.Since(t0)) / queryBatch
		e.tr.end()
		if miss {
			out.missNs = append(out.missNs, ns)
		} else {
			out.hitNs = append(out.hitNs, ns)
		}

		if sinceTick += queryBatch; sinceTick >= sz.tickEvery {
			sinceTick = 0
			e.tr.begin(spAdvance, false)
			eng.RunUntil(eng.Now() + netsim.Millisecond)
			e.tr.end()
			if n := lf.CachedFlows(); n > cachedPeak {
				cachedPeak = n
			}
		}
		// The k-th install follows the batch that completes k/installs of
		// the op's queries.
		if (q+queryBatch)*sz.installs/sz.queries > version {
			version++
			// A tuned model: the output bias moves, the shape stays.
			net := st.net.Clone()
			last := net.Layers[len(net.Layers)-1]
			last.B[0] += 0.01 * float64(version)
			t0 := time.Now()
			e.tr.begin(spQuantize, false)
			prog := quant.Quantize(net, liteflow.DefaultQuantConfig())
			e.tr.end()
			tQuant := time.Since(t0)
			var mallocs0 uint64
			if e.tr != nil {
				mallocs0 = mallocsNow()
			}
			t0 = time.Now()
			e.tr.begin(spBuild, false)
			mod, err := codegen.Build(prog, fmt.Sprintf("aurora%d", version))
			e.tr.end()
			tBuild := time.Since(t0)
			if err != nil {
				return nil, err
			}
			if e.tr != nil {
				buildAllocs += mallocsNow() - mallocs0
			}
			t0 = time.Now()
			e.tr.begin(spInstall, false)
			model, err := lf.RegisterModel(mod)
			if err == nil {
				err = lf.Activate()
			}
			e.tr.end()
			tInstall := time.Since(t0)
			if err != nil {
				return nil, err
			}
			quantNs += int64(tQuant)
			buildNs += int64(tBuild)
			installNs += int64(tInstall)
			out.installMs = append(out.installMs, float64(tQuant+tBuild+tInstall)/1e6)
			rig.models = append(rig.models, model)
			if refs, cached := rig.refs(), lf.CachedFlows(); refs != cached && refsOK {
				refsOK, refsDetail = false, fmt.Sprintf("after install %d: Σ Refs %d != CachedFlows %d", version, refs, cached)
			}
			e.heap.sample()
		}
	}
	out.m = m.stop()
	e.tr.stopRep()
	lf.StopSweeper()

	dg := newDigest()
	coreLayer(out.layer, dg, core0, lf.Stats())
	dg.i64(int64(lf.CachedFlows()), int64(lf.Models()), rig.out[0])
	out.digest = dg.sum()
	l := out.layer
	l["core.query_ms"] = ms(e.tr.total(spQuery).incl)
	if d := e.tr.durations(spQuery, e.rep); len(d) > 0 {
		l["core.query_batch_ns_p99"] = percentile(d, 0.99) * 1e6
	}
	l["core.cached_flows_peak"] = float64(cachedPeak)
	l["core.sweep_scan_max"] = float64(lf.MaxSweepTickScan())
	l["core.install_ms"] = ms(installNs)
	l["quant.quantize_ms"] = ms(quantNs)
	l["codegen.build_ms"] = ms(buildNs)
	l["codegen.build_allocs"] = ratio(float64(buildAllocs), float64(len(out.installMs)))
	l["netsim.run_ms"] = ms(e.tr.total(spAdvance).incl)
	l["netsim.self_ms"] = ms(e.tr.total(spAdvance).self)

	out.check("refs", refsOK, "%s", refsDetail)
	out.check("installs", len(out.installMs) == sz.installs, "%d installs, want %d", len(out.installMs), sz.installs)
	return out, nil
}
