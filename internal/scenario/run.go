package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/liteflow-sim/liteflow/internal/actor"
	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/tcp"
	"github.com/liteflow-sim/liteflow/internal/topo"
	"github.com/liteflow-sim/liteflow/internal/workload"
)

// RunOpts configure one scenario run.
type RunOpts struct {
	// Domains: 0 = classic engine; ≥ 1 = partitioned engine, one tie-break
	// family whatever the number.
	Domains int
	// Scale multiplies session and churn counts (floor 1 per group); 0 means
	// natural scale. The acceptance envelope is only checked at natural
	// scale.
	Scale float64
	// SeedOffset perturbs the spec seed (experiment repetitions).
	SeedOffset uint64
}

// Report is one scenario run's deterministic outcome. String() must not
// include anything host-dependent: the golden test pins a digest of its
// bytes.
type Report struct {
	Name  string
	Scale float64
	Dur   netsim.Time
	Hosts int
	// Flows counts the persistent (concurrent) actor flows registered at
	// setup; ChurnFlows counts the layered one-shot mice.
	Flows      int64
	ChurnFlows int64
	ChurnBytes int64
	LossDrops  int64

	PerClass []ClassStats
	Total    ClassStats

	// EnvelopeChecked reports whether the acceptance envelope applied (it
	// only does at natural scale); Violations lists every bound it broke.
	EnvelopeChecked bool
	Violations      []string
}

// ClassStats aggregates one session class (or the whole run for Total).
type ClassStats struct {
	Class       string
	Sessions    int64
	Requests    int64
	Responses   int64
	BytesDown   int64
	Rebuffers   int64
	BitrateSum  int64
	IncastSkips int64
	P50Ms       float64
	P99Ms       float64
	GoodputMbps float64
}

// classes is the fixed report order.
var classes = []actor.Class{actor.Web, actor.Video, actor.RPC, actor.Bulk}

// String renders the deterministic report text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== scenario %s ==\n", r.Name)
	fmt.Fprintf(&b, "hosts %d, duration %gms, scale %g, flows %d concurrent (+%d churn mice)\n",
		r.Hosts, float64(r.Dur)/1e6, r.Scale, r.Flows, r.ChurnFlows)
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %14s %9s %9s %12s\n",
		"class", "sessions", "requests", "responses", "bytesDown", "p50ms", "p99ms", "goodputMbps")
	row := func(c ClassStats) {
		fmt.Fprintf(&b, "%-8s %10d %10d %10d %14d %9.3f %9.3f %12.3f\n",
			c.Class, c.Sessions, c.Requests, c.Responses, c.BytesDown, c.P50Ms, c.P99Ms, c.GoodputMbps)
	}
	for _, c := range r.PerClass {
		row(c)
	}
	row(r.Total)
	for _, c := range r.PerClass {
		if c.Class == "video" && c.Responses > 0 {
			fmt.Fprintf(&b, "video: %d rebuffers (%.4f per chunk), avg bitrate %d kbps\n",
				c.Rebuffers, float64(c.Rebuffers)/float64(c.Responses), c.BitrateSum/c.Responses/1000)
		}
		if c.Class == "rpc" {
			fmt.Fprintf(&b, "rpc: %d incast skips\n", c.IncastSkips)
		}
	}
	if r.LossDrops > 0 {
		fmt.Fprintf(&b, "loss: %d access-link drops\n", r.LossDrops)
	}
	if r.ChurnFlows > 0 {
		fmt.Fprintf(&b, "churn: %d mice delivered %d bytes\n", r.ChurnFlows, r.ChurnBytes)
	}
	switch {
	case !r.EnvelopeChecked:
		fmt.Fprintf(&b, "envelope: unchecked (scale %g)\n", r.Scale)
	case len(r.Violations) == 0:
		b.WriteString("envelope: OK\n")
	default:
		fmt.Fprintf(&b, "envelope: %d violations\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	return b.String()
}

// ArrivalDensity returns the scenario's relative arrival density at fraction
// frac ∈ [0,1] of its ramp window: 1 everywhere for flat arrivals, and the
// day/night curve (MinFrac at the troughs, 1 at the peaks) when a diurnal
// cycle is set. The fleet plane uses this to shape member query cadence by a
// scenario's workload without running its flows (FleetScenarioOpts.Workload).
func (s *Spec) ArrivalDensity(frac float64) float64 {
	d := s.Arrival.Diurnal
	if d == nil {
		return 1
	}
	t := frac * s.Arrival.RampMs
	return d.MinFrac + (1-d.MinFrac)*(1-math.Cos(2*math.Pi*t/d.PeriodMs))/2
}

// diurnalCDF is a numeric inverse-CDF table for the sinusoidal arrival
// density d(t) = min + (1-min)·(1-cos(2πt/period))/2 over the ramp window
// (trough at t=0). Mapping uniform draws through it thins arrivals at night
// and bunches them at the peaks without changing the total count.
type diurnalCDF struct{ cum []float64 }

func newDiurnalCDF(d *DiurnalSpec, rampMs float64) *diurnalCDF {
	const bins = 512
	c := &diurnalCDF{cum: make([]float64, bins+1)}
	for i := 0; i < bins; i++ {
		t := (float64(i) + 0.5) / bins * rampMs
		den := d.MinFrac + (1-d.MinFrac)*(1-math.Cos(2*math.Pi*t/d.PeriodMs))/2
		c.cum[i+1] = c.cum[i] + den
	}
	total := c.cum[bins]
	for i := range c.cum {
		c.cum[i] /= total
	}
	return c
}

// invert maps u ∈ [0,1) to a window position in [0,1).
func (c *diurnalCDF) invert(u float64) float64 {
	bins := len(c.cum) - 1
	lo, hi := 0, bins
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] <= u {
			lo = mid
		} else {
			hi = mid
		}
	}
	span := c.cum[lo+1] - c.cum[lo]
	frac := 0.0
	if span > 0 {
		frac = (u - c.cum[lo]) / span
	}
	return (float64(lo) + frac) / float64(bins)
}

// Run plays one scenario and returns its report.
func Run(s *Spec, o RunOpts) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	scale := o.Scale
	if scale <= 0 {
		scale = 1
	}
	scaleCount := func(n int) int {
		v := int(float64(n)*scale + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}

	topoOpts := topo.DefaultSpineLeafOpts(s.Fabric.HostsPerLeaf)
	ccName := s.CC
	if s.Fabric.Profile == "wan" {
		topoOpts.HostDelay = 50 * netsim.Microsecond
		topoOpts.FabricDelay = 2 * netsim.Millisecond
		topoOpts.QueueBytes = 4 << 20
		topoOpts.ECNThresholdBytes = 0
		if ccName == "" {
			ccName = "cubic"
		}
	}
	if ccName == "" {
		ccName = "dctcp"
	}
	var ccFn func() tcp.CongestionControl
	switch ccName {
	case "dctcp":
		ccFn = func() tcp.CongestionControl { return cc.NewDCTCP() }
	case "cubic":
		ccFn = func() tcp.CongestionControl { return cc.NewCubic() }
	case "bbr":
		ccFn = func() tcp.CongestionControl { return cc.NewBBR() }
	}
	fabric := rig.NewFabric(o.Domains, topoOpts, 0, obs.Scope{})
	eng, hosts := fabric.Eng, fabric.Hosts
	// Every draw happens at setup time in spec order, so runs are
	// deterministic for any engine layout.
	rng := actor.NewPRNG(s.Seed + o.SeedOffset)

	var lossLinks []*netsim.Link
	if s.Fabric.Profile == "wireless" {
		for i, h := range hosts {
			up := h.Egress()
			down := fabric.Leaves[fabric.LeafOf(i)].Port(i)
			up.SetLoss(s.Fabric.LossRate, int64(s.Seed+o.SeedOffset)+int64(2*i)+101)
			down.SetLoss(s.Fabric.LossRate, int64(s.Seed+o.SeedOffset)+int64(2*i)+102)
			lossLinks = append(lossLinks, up, down)
		}
	}

	dur := netsim.Time(s.DurationMs * 1e6)
	rampNs := s.Arrival.RampMs * 1e6
	var diurnal *diurnalCDF
	if s.Arrival.Diurnal != nil && rampNs > 0 {
		diurnal = newDiurnalCDF(s.Arrival.Diurnal, s.Arrival.RampMs)
	}

	// One metrics collector per (host, class): sessions only ever share a
	// collector within their client host's partition (§4j), and the post-run
	// merge walks hosts then classes — a fixed order for any domain count.
	coll := make([][4]*actor.Metrics, len(hosts))
	metricsFor := func(host int, cls actor.Class) *actor.Metrics {
		if coll[host][cls] == nil {
			coll[host][cls] = actor.NewMetrics()
		}
		return coll[host][cls]
	}

	totalPlanned := 0
	for i := range s.Actors {
		totalPlanned += scaleCount(s.Actors[i].Count)
	}

	// launchPos draws a ramp position in [0,1) for global session k.
	launched := 0
	launchPos := func() float64 {
		var u float64
		if s.Arrival.Process == "uniform" || s.Arrival.Process == "" {
			u = (float64(launched) + 0.5) / float64(totalPlanned)
		} else {
			u = rng.F64()
		}
		launched++
		if diurnal != nil {
			return diurnal.invert(u)
		}
		return u
	}

	var flow netsim.FlowID
	var clientRR int
	byClass := map[string][]*actor.Session{}
	build := func(g *ActorGroup) *actor.Session {
		client := clientRR % len(hosts)
		clientRR++
		f := 1
		if g.Class == "rpc" {
			f = g.fanout()
		}
		servers := make([]*tcp.Host, f)
		off := rng.Intn(len(hosts) - 1)
		for j := 0; j < f; j++ {
			servers[j] = hosts[(client+1+(off+j)%(len(hosts)-1))%len(hosts)]
		}
		opts := actor.Opts{
			Client:   hosts[client],
			Servers:  servers,
			BaseFlow: flow,
			Seed:     rng.Next(),
			CC:       ccFn,
			ReqBytes: g.ReqBytes,
		}
		if opts.ReqBytes == 0 {
			opts.ReqBytes = 300
		}
		switch g.Class {
		case "web":
			opts.Class = actor.Web
			opts.ThinkMean = netsim.Time(g.ThinkMs * 1e6)
			if opts.ThinkMean == 0 {
				opts.ThinkMean = 5 * netsim.Millisecond
			}
			if g.RespDist == "fixed" {
				b := float64(g.RespBytes)
				opts.RespDist = workload.NewSizeDist([]float64{b, b}, []float64{0, 1})
			} else {
				opts.RespDist = workload.WebSearch()
			}
		case "video":
			opts.Class = actor.Video
			opts.ChunkDur = netsim.Time(g.ChunkMs * 1e6)
			if opts.ChunkDur == 0 {
				opts.ChunkDur = 100 * netsim.Millisecond
			}
			opts.Ladder = g.LadderKbps
			if len(opts.Ladder) == 0 {
				opts.Ladder = []int64{300, 750, 1500, 3000, 6000}
			}
			opts.Ladder = append([]int64(nil), opts.Ladder...)
			for i := range opts.Ladder {
				opts.Ladder[i] *= 1000 // kbps → bps
			}
		case "rpc":
			opts.Class = actor.RPC
			opts.RespBytes = g.RespBytes
			opts.ThinkMean = netsim.Time(g.ThinkMs * 1e6)
			if opts.ThinkMean == 0 {
				opts.ThinkMean = 10 * netsim.Millisecond
			}
		case "bulk":
			opts.Class = actor.Bulk
			opts.RespBytes = g.RespBytes
			opts.ThinkMean = netsim.Time(g.ThinkMs * 1e6)
		}
		opts.Metrics = metricsFor(client, opts.Class)
		sess := actor.New(opts)
		flow += netsim.FlowID(sess.Flows())
		byClass[g.Class] = append(byClass[g.Class], sess)
		return sess
	}

	for i := range s.Actors {
		g := &s.Actors[i]
		for k := scaleCount(g.Count); k > 0; k-- {
			sess := build(g)
			sess.Launch(netsim.Time(launchPos() * rampNs))
		}
	}

	// Events: flash crowds clone the first matching group; incast bursts
	// fire every rpc session at once (busy sessions count IncastSkips).
	for i := range s.Events {
		e := &s.Events[i]
		at := netsim.Time(e.AtMs * 1e6)
		switch e.Kind {
		case "flash-crowd":
			var tmpl *ActorGroup
			for j := range s.Actors {
				if s.Actors[j].Class == e.Class {
					tmpl = &s.Actors[j]
					break
				}
			}
			for k := scaleCount(e.Sessions); k > 0; k-- {
				sess := build(tmpl)
				sess.Launch(at + netsim.Time(rng.F64()*e.SpanMs*1e6))
			}
		case "incast-burst":
			for _, sess := range byClass["rpc"] {
				sess.Fire(at)
			}
		}
	}

	// Churn: short-lived background mice layered after the actor flow-ID
	// block — the GenerateChurnAt composition contract.
	var churnFlows int64
	churnRx := make([]int64, len(hosts))
	if s.Churn != nil {
		n := scaleCount(s.Churn.Flows)
		churn := workload.GenerateChurnAt(
			rand.New(rand.NewSource(int64(s.Seed+o.SeedOffset)+1)),
			n, s.Churn.RatePerSec*scale, netsim.Time(s.Churn.MeanLifeMs*1e6),
			s.Churn.FinFrac, flow, 0)
		churnFlows = int64(len(churn))
		for _, cf := range churn {
			src := rng.Intn(len(hosts))
			dst := (src + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
			size := int64(cf.Queries) * netsim.MSS
			snd := tcp.NewSender(hosts[src], cf.ID, hosts[dst].ID, size, ccFn())
			rcv := tcp.NewReceiver(hosts[dst], cf.ID, hosts[src].ID)
			d := dst
			rcv.OnDeliver = func(nb int, now netsim.Time) { churnRx[d] += int64(nb) }
			hosts[src].Eng.At(cf.Open, snd.Start)
		}
	}

	eng.RunUntil(dur)

	// Merge host-major, class-minor — deterministic for any domain count.
	perClass := make([]*actor.Metrics, len(classes))
	for _, c := range classes {
		perClass[c] = actor.NewMetrics()
	}
	for h := range coll {
		for _, c := range classes {
			if coll[h][c] != nil {
				perClass[c].Merge(coll[h][c])
			}
		}
	}
	total := actor.NewMetrics()
	for _, c := range classes {
		total.Merge(perClass[c])
	}

	r := &Report{
		Name: s.Name, Scale: scale, Dur: dur, Hosts: len(hosts),
		Flows: int64(flow), ChurnFlows: churnFlows,
	}
	for _, c := range classes {
		if perClass[c].Sessions == 0 {
			continue
		}
		r.PerClass = append(r.PerClass, classStats(c.String(), perClass[c], dur))
	}
	r.Total = classStats("total", total, dur)
	for _, l := range lossLinks {
		r.LossDrops += l.LossDrops()
	}
	for _, b := range churnRx {
		r.ChurnBytes += b
	}
	if scale == 1 {
		r.EnvelopeChecked = true
		r.Violations = s.Envelope.check(r)
	}
	return r, nil
}

// classStats folds one merged collector into report numbers.
func classStats(name string, m *actor.Metrics, dur netsim.Time) ClassStats {
	c := ClassStats{
		Class: name, Sessions: m.Sessions, Requests: m.Requests,
		Responses: m.Responses, BytesDown: m.BytesDown, Rebuffers: m.Rebuffers,
		BitrateSum: m.BitrateSum, IncastSkips: m.IncastSkips,
	}
	if m.Lat.N() > 0 {
		c.P50Ms = m.Lat.Quantile(0.5) / 1e6
		c.P99Ms = m.Lat.Quantile(0.99) / 1e6
	}
	c.GoodputMbps = float64(m.BytesDown*8) / (float64(dur) / 1e9) / 1e6
	return c
}

// check evaluates the envelope against a natural-scale report.
func (e *Envelope) check(r *Report) []string {
	var v []string
	t := r.Total
	if e.MinGoodputMbps > 0 && t.GoodputMbps < e.MinGoodputMbps {
		v = append(v, fmt.Sprintf("goodput %.3f Mbps < min %g", t.GoodputMbps, e.MinGoodputMbps))
	}
	if e.MaxP50LatMs > 0 && t.P50Ms > e.MaxP50LatMs {
		v = append(v, fmt.Sprintf("p50 latency %.3f ms > max %g", t.P50Ms, e.MaxP50LatMs))
	}
	if e.MaxP99LatMs > 0 && t.P99Ms > e.MaxP99LatMs {
		v = append(v, fmt.Sprintf("p99 latency %.3f ms > max %g", t.P99Ms, e.MaxP99LatMs))
	}
	if e.MinResponses > 0 && t.Responses < e.MinResponses {
		v = append(v, fmt.Sprintf("responses %d < min %d", t.Responses, e.MinResponses))
	}
	for _, c := range r.PerClass {
		if c.Class != "video" || c.Responses == 0 {
			continue
		}
		frac := float64(c.Rebuffers) / float64(c.Responses)
		if e.MaxRebufferFrac > 0 && frac > e.MaxRebufferFrac {
			v = append(v, fmt.Sprintf("rebuffer fraction %.4f > max %g", frac, e.MaxRebufferFrac))
		}
		if e.MinAvgBitrateKbps > 0 && c.BitrateSum/c.Responses/1000 < e.MinAvgBitrateKbps {
			v = append(v, fmt.Sprintf("avg bitrate %d kbps < min %d", c.BitrateSum/c.Responses/1000, e.MinAvgBitrateKbps))
		}
	}
	return v
}
