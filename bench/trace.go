package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// spanID names a boundary the benchmark can reach from outside the program.
// The layer is the part of the name before the dot.
type spanID uint8

const (
	spOp       spanID = iota // one whole rep of a black-box op
	spSlice                  // one eng.RunUntil slice
	spHostRx                 // Host.HandlePacket on a host down-link
	spOnAck                  // tcp.CongestionControl.OnAck
	spQuery                  // a query into core (cc.Backend.Query or a QueryModel batch)
	spDeliver                // the netlink deliver callback (Service.HandleBatch)
	spAdapt                  // core.Adapter.Adapt
	spInfer                  // core.Evaluator.Infer
	spQuantize               // quant.Quantize
	spBuild                  // codegen.Build
	spInstall                // RegisterModel + Activate
	spAdvance                // eng.RunUntil that only ticks the cache sweeper
	numSpans
)

var spanNames = [numSpans]string{
	"run.op", "netsim.run", "tcp.host_rx", "cc.onack", "core.query",
	"netlink.deliver", "nn.adapt", "nn.infer", "quant.quantize",
	"codegen.build", "core.install", "netsim.advance",
}

// span is one recorded interval, in nanoseconds since the tracer started.
// A span with n > 0 is an aggregate: the summed self time of n calls that
// were too frequent to record one by one, laid out from its parent's start.
type span struct {
	id         spanID
	start, end int64
	parent     int32 // index into tracer.spans, -1 for a root
	rep        int32
	n          int64
}

type spanTotal struct {
	incl, self, n int64
}

type frame struct {
	id    spanID
	agg   bool
	idx   int32 // reserved slot in spans; unused when agg
	scale int64 // 1, or aggSample inside a sampled call
	start int64
	child int64 // inclusive time of direct children, in this frame's scale
}

// aggSample is the sampling period of aggregated calls: the clock is read on
// every aggSample-th call of a name and the time counted aggSample times, so
// that a boundary crossed once per packet costs the traced run a few percent,
// not a fifth. Every call is counted.
const aggSample = 8

// subTotals is, for one recorded span that is still open, the self time of
// the aggregated calls below it, by name.
type subTotals [numSpans]spanTotal

// tracer records spans from the benchmark's own call sites. A nil tracer is
// the untraced run: every method is a no-op.
//
// Self time of a span is its duration minus the inclusive duration of its
// direct children. Calls made once per packet (agg = true) are not stored one
// by one: they are timed by sampling (see aggSample), their self time is
// summed into the nearest recorded ancestor and written as one aggregate
// child per name when that ancestor ends, so the rule "self = span −
// children" also holds in the trace file.
type tracer struct {
	t0    time.Time
	on    bool // spans are recorded only inside a rep's timed region
	open  bool // the top frame was opened by beginOpen
	skip  int  // depth inside an aggregated call that is not sampled
	seq   [numSpans]int64
	rep   int32
	stack []frame
	subs  []subTotals // one per recorded frame on the stack
	spans []span
	tot   [numSpans]spanTotal // totals of the current rep
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stack: make([]frame, 0, 8), subs: make([]subTotals, 0, 8)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// startRep opens a rep's timed region: it clears the per-rep totals (spans
// of all reps are kept) and starts recording. stopRep closes it. Both are
// called with no span open.
func (t *tracer) startRep(rep int) {
	if t == nil {
		return
	}
	t.on = true
	t.rep = int32(rep)
	t.tot = [numSpans]spanTotal{}
}

func (t *tracer) stopRep() {
	if t != nil {
		t.on = false
	}
}

func (t *tracer) begin(id spanID, agg bool) {
	if t == nil || !t.on {
		return
	}
	if t.skip > 0 {
		t.skip++
		return
	}
	if t.open {
		t.open = false
		t.end()
	}
	f := frame{id: id, agg: agg, idx: -1, scale: 1}
	if n := len(t.stack); n > 0 && t.stack[n-1].agg {
		f.agg, f.scale = true, t.stack[n-1].scale
	} else if agg {
		if t.seq[id]++; t.seq[id]%aggSample != 0 {
			t.tot[id].n++
			t.skip = 1
			return
		}
		f.scale = aggSample
	}
	if !f.agg {
		f.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{})
		t.subs = append(t.subs, subTotals{})
	}
	f.start = t.now()
	t.stack = append(t.stack, f)
}

// beginOpen starts a recorded span that the next begin or end on the tracer
// closes. It is for work whose start the benchmark sees, in a callback it
// supplies, but whose end it does not: the span then runs to the next
// boundary the benchmark does see, which on a busy engine is a few events
// (microseconds) later.
func (t *tracer) beginOpen(id spanID) {
	if t == nil || !t.on {
		return
	}
	t.begin(id, false)
	t.open = true
}

func (t *tracer) end() {
	if t == nil || !t.on {
		return
	}
	if t.skip > 0 {
		t.skip--
		return
	}
	if t.open {
		t.open = false
		t.end()
	}
	now := t.now()
	top := len(t.stack) - 1
	f := t.stack[top]
	t.stack = t.stack[:top]
	dur := now - f.start
	self := (dur - f.child) * f.scale
	tt := &t.tot[f.id]
	tt.incl += dur * f.scale
	tt.self += self
	tt.n++
	if top > 0 {
		t.stack[top-1].child += dur * f.scale / t.stack[top-1].scale
	}
	if f.agg {
		// Every frame above the innermost recorded one is aggregated.
		if n := len(t.subs); n > 0 {
			s := &t.subs[n-1][f.id]
			s.self += self
			s.n += f.scale
		}
		return
	}
	parent := int32(-1)
	if top > 0 {
		parent = t.stack[top-1].idx
	}
	t.spans[f.idx] = span{id: f.id, start: f.start, end: now, parent: parent, rep: t.rep}
	cursor := f.start
	for id, s := range t.subs[len(t.subs)-1] {
		if s.n == 0 {
			continue
		}
		t.spans = append(t.spans, span{id: spanID(id), start: cursor, end: cursor + s.self,
			parent: f.idx, rep: t.rep, n: s.n})
		cursor += s.self
	}
	t.subs = t.subs[:len(t.subs)-1]
}

func (t *tracer) total(id spanID) spanTotal {
	if t == nil {
		return spanTotal{}
	}
	return t.tot[id]
}

// durations returns the durations (ms) of the recorded spans of one name in
// one rep.
func (t *tracer) durations(id spanID, rep int) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.id == id && s.n == 0 && int(s.rep) == rep {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeEvents renders the spans of one workload; pid tells workloads apart
// and tid is the rep.
func (t *tracer) chromeEvents(pid int, workload string) []chromeEvent {
	if t == nil {
		return nil
	}
	evs := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		name := spanNames[s.id]
		layer, _, _ := strings.Cut(name, ".")
		args := map[string]any{"id": i, "parent": s.parent, "workload": workload}
		if s.n > 0 {
			args["aggregated_calls"] = s.n
		}
		evs = append(evs, chromeEvent{Name: name, Cat: layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: pid, Tid: s.rep, Args: args})
	}
	return evs
}

func writeChromeTrace(path string, evs []chromeEvent) error {
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
