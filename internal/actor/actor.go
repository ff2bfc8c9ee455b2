// Package actor implements persistent per-user session state machines that
// drive live tcp flows on the netsim engine — the workload plane of the
// scenario library. Where package workload precomputes FlowSpec lists, an
// actor *is* a user: it owns long-lived connections, issues requests, reacts
// to responses, and adapts (video ABR) — all as simulator events.
//
// Partition ownership (DESIGN.md §4j): a session's client state lives on the
// client host and is touched only from callbacks delivered to that host's
// partition (receiver delivery, think-time timers). The server half is a
// dumb Responder whose state lives on the server host and is touched only
// from that partition (request arrival). The two halves communicate solely
// through tcp flows over links, so scenarios run unchanged on a classic
// engine and on a partitioned one (nothing schedules across partitions).
//
// Mechanically a session pre-creates its connections at setup time (flow
// registration is partition-safe before Run starts): one up flow
// (client→server) carrying requests and one down flow (server→client)
// carrying responses, both app-limited tcp streams (Sender.Push). A request
// is a small tagged message whose tag is the response size in bytes; the
// responder answers any request by pushing that many bytes back. Requests on
// one connection are strictly sequential, so response completion is plain
// byte counting on the client.
package actor

import (
	"math"

	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/stats"
	"github.com/liteflow-sim/liteflow/internal/tcp"
	"github.com/liteflow-sim/liteflow/internal/workload"
)

// Class enumerates the session types of the scenario library.
type Class int

// Session classes.
const (
	// Web is a request/response user: exponential think time, response
	// sizes drawn from a flow-size distribution.
	Web Class = iota
	// Video is an adaptive-bitrate streamer: a chunk every ChunkDur,
	// bitrate chosen from Ladder by measured download throughput.
	Video
	// RPC is a fan-out caller: one request to every server at once,
	// complete when the slowest response lands (incast at the client).
	RPC
	// Bulk is a backup/sync user: back-to-back large downloads.
	Bulk
)

// String names the class as scenario reports do.
func (c Class) String() string {
	switch c {
	case Web:
		return "web"
	case Video:
		return "video"
	case RPC:
		return "rpc"
	default:
		return "bulk"
	}
}

// expTime returns an exponential draw with the given mean.
func expTime(p *netsim.PRNG, mean netsim.Time) netsim.Time {
	u := p.F64()
	if u <= 0 {
		u = 1.0 / (1 << 53)
	}
	d := -math.Log(u) * float64(mean)
	return netsim.Time(d)
}

// Metrics aggregates one actor population's client-side accounting. The
// scenario harness keeps one per class, shared by that class's sessions on
// every host; the simulation runs on one goroutine, so sharing needs no
// synchronization.
type Metrics struct {
	Sessions    int64
	Requests    int64
	Responses   int64
	BytesDown   int64 // unique response payload delivered to clients
	Rebuffers   int64 // video: chunks that missed their playback slot
	BitrateSum  int64 // video: sum of delivered-chunk bitrates (bps)
	IncastSkips int64 // forced fires dropped because the session was busy
	// Lat holds response latencies in nanoseconds: request issue → last
	// response byte (for RPC, the slowest of the fan-out).
	Lat *stats.Dist
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics { return &Metrics{Lat: stats.NewDist(256)} }

// Merge folds o into m.
func (m *Metrics) Merge(o *Metrics) {
	m.Sessions += o.Sessions
	m.Requests += o.Requests
	m.Responses += o.Responses
	m.BytesDown += o.BytesDown
	m.Rebuffers += o.Rebuffers
	m.BitrateSum += o.BitrateSum
	m.IncastSkips += o.IncastSkips
	m.Lat.Merge(o.Lat)
}

// Conn is one client connection of a session: the request stream it pushes
// and the response stream it consumes. The server-side halves are wired by
// New and never referenced afterwards.
type Conn struct {
	sess   *Session
	up     *tcp.Sender
	downRx *tcp.Receiver
	remain int64 // response bytes still expected on this connection
}

// onBytes consumes newly delivered response payload (client partition).
func (c *Conn) onBytes(n int, now netsim.Time) {
	s := c.sess
	s.m.BytesDown += int64(n)
	if c.remain <= 0 {
		return
	}
	c.remain -= int64(n)
	if c.remain > 0 {
		return
	}
	s.onRespDone(now)
}

// Opts configures one session.
type Opts struct {
	Class  Class
	Client *tcp.Host
	// Servers the session talks to: exactly one for Web/Video/Bulk, the
	// fan-out set for RPC.
	Servers []*tcp.Host
	// BaseFlow is the start of this session's flow-ID block; the session
	// uses BaseFlow+1 .. BaseFlow+2·len(Servers) (an up/down pair per
	// server).
	BaseFlow netsim.FlowID
	// Seed drives the session-private PRNG.
	Seed uint64
	// CC constructs a fresh congestion controller per flow.
	CC func() tcp.CongestionControl
	// Metrics receives this session's accounting; sessions may share one
	// collector.
	Metrics *Metrics

	// ThinkMean is the mean think/inter-call time (Web, RPC; optional
	// pause for Bulk).
	ThinkMean netsim.Time
	// ReqBytes is the request message size; it should stay ≤ one MSS so
	// the responder sees the whole request when the tagged segment lands.
	ReqBytes int64
	// RespDist draws Web response sizes.
	RespDist *workload.SizeDist
	// RespBytes is the per-server response size (RPC) or item size (Bulk).
	RespBytes int64
	// ChunkDur and Ladder configure Video: chunk playback duration and the
	// bitrate ladder (bps, ascending).
	ChunkDur netsim.Time
	Ladder   []int64
}

// Session is one user's state machine. All fields are client-partition
// state; nothing outside the package may touch them while the engine runs.
type Session struct {
	cls Class
	eng *netsim.Engine
	rng netsim.PRNG
	m   *Metrics

	conns []Conn

	think     netsim.Time
	reqBytes  int64
	respDist  *workload.SizeDist
	respBytes int64
	chunkDur  netsim.Time
	ladder    []int64

	busy        bool
	outstanding int         // RPC: responses still pending this fan-out
	reqAt       netsim.Time // when the current request was issued
	ladderIdx   int         // video: current rung
	playhead    netsim.Time // video: deadline of the chunk being fetched
	launched    bool

	issueFn func() // bound once; every timer schedules this
}

// New builds a session and registers its flows with the client and server
// hosts. Must run at setup time (before the engine starts); the session is
// dormant until Launch.
func New(o Opts) *Session {
	if len(o.Servers) == 0 {
		panic("actor: session needs at least one server")
	}
	if o.Class != RPC && len(o.Servers) != 1 {
		panic("actor: only RPC sessions fan out to multiple servers")
	}
	if o.ReqBytes <= 0 || o.ReqBytes > netsim.MSS {
		panic("actor: ReqBytes must be in 1..MSS")
	}
	if o.Class == Web && o.RespDist == nil {
		panic("actor: Web needs RespDist")
	}
	if (o.Class == RPC || o.Class == Bulk) && o.RespBytes <= 0 {
		panic("actor: RPC/Bulk need RespBytes")
	}
	if o.Class == Video && (o.ChunkDur <= 0 || len(o.Ladder) == 0) {
		panic("actor: Video needs ChunkDur and Ladder")
	}
	if o.Metrics == nil {
		panic("actor: nil Metrics")
	}
	s := &Session{
		cls: o.Class, eng: o.Client.Eng, rng: netsim.NewPRNG(o.Seed), m: o.Metrics,
		think: o.ThinkMean, reqBytes: o.ReqBytes, respDist: o.RespDist,
		respBytes: o.RespBytes, chunkDur: o.ChunkDur, ladder: o.Ladder,
	}
	s.issueFn = s.issueRequest
	s.conns = make([]Conn, len(o.Servers))
	for i, srv := range o.Servers {
		upID := o.BaseFlow + netsim.FlowID(2*i+1)
		downID := o.BaseFlow + netsim.FlowID(2*i+2)
		c := &s.conns[i]
		c.sess = s
		// Client half.
		c.up = tcp.NewSender(o.Client, upID, srv.ID, 0, o.CC())
		c.downRx = tcp.NewReceiver(o.Client, downID, srv.ID)
		c.downRx.OnDeliver = c.onBytes
		// Server half: a dumb responder — any request tag is a response
		// size to push back. Its only state is the down sender, owned by
		// the server partition where OnApp fires.
		down := tcp.NewSender(srv, downID, o.Client.ID, 0, o.CC())
		upRx := tcp.NewReceiver(srv, upID, o.Client.ID)
		upRx.OnApp = func(tag int64, now netsim.Time) { down.Push(tag, 0) }
		// Mark both streams app-limited BEFORE starting them: a started
		// Size==0 sender without the mark is an unbounded source.
		c.up.MarkAppLimited()
		down.MarkAppLimited()
		c.up.Start()
		down.Start()
	}
	s.m.Sessions++
	return s
}

// Flows returns the number of tcp flows the session registered.
func (s *Session) Flows() int { return 2 * len(s.conns) }

// Launch schedules the session's first request at the given absolute time.
// Call at setup time only.
func (s *Session) Launch(at netsim.Time) {
	if s.launched {
		panic("actor: session launched twice")
	}
	s.launched = true
	s.eng.At(at, s.issueFn)
}

// Fire schedules a forced request at the given absolute time — the incast
// burst mechanism. If the session is mid-request when it fires, the burst is
// skipped and counted in Metrics.IncastSkips. Call at setup time only.
func (s *Session) Fire(at netsim.Time) {
	s.eng.At(at, s.issueFn)
}

// issueRequest starts one request cycle (client partition).
func (s *Session) issueRequest() {
	if s.busy {
		s.m.IncastSkips++
		return
	}
	s.busy = true
	s.reqAt = s.eng.Now()
	s.m.Requests++
	switch s.cls {
	case Web:
		size := s.respDist.SampleU(s.rng.F64())
		s.conns[0].remain = size
		s.conns[0].up.Push(s.reqBytes, size)
	case Video:
		size := s.chunkBytes()
		s.conns[0].remain = size
		s.conns[0].up.Push(s.reqBytes, size)
	case RPC:
		s.outstanding = len(s.conns)
		for i := range s.conns {
			s.conns[i].remain = s.respBytes
			s.conns[i].up.Push(s.reqBytes, s.respBytes)
		}
	case Bulk:
		s.conns[0].remain = s.respBytes
		s.conns[0].up.Push(s.reqBytes, s.respBytes)
	}
}

// chunkBytes sizes a video chunk at the current rung.
func (s *Session) chunkBytes() int64 {
	b := s.ladder[s.ladderIdx] * int64(s.chunkDur) / (8 * int64(netsim.Second))
	if b < 1 {
		b = 1
	}
	return b
}

// onRespDone finishes one request cycle (client partition): record latency,
// adapt (video), and schedule the next request.
func (s *Session) onRespDone(now netsim.Time) {
	if s.cls == RPC {
		s.outstanding--
		if s.outstanding > 0 {
			return
		}
	}
	lat := now - s.reqAt
	s.m.Responses++
	s.m.Lat.Add(float64(lat))
	s.busy = false
	switch s.cls {
	case Web:
		s.eng.After(expTime(&s.rng, s.think), s.issueFn)
	case RPC:
		s.eng.After(expTime(&s.rng, s.think), s.issueFn)
	case Bulk:
		if s.think > 0 {
			s.eng.After(expTime(&s.rng, s.think), s.issueFn)
		} else {
			s.issueRequest()
		}
	case Video:
		s.m.BitrateSum += s.ladder[s.ladderIdx]
		s.adaptLadder(lat)
		// Playback model: the chunk just delivered plays for chunkDur; the
		// next chunk is due at the playhead. Completing after the playhead
		// is a rebuffer and resets the clock. The client keeps one chunk
		// of buffer: it requests the next chunk a full chunk duration
		// before its deadline.
		if s.playhead == 0 || now > s.playhead {
			if s.playhead != 0 {
				s.m.Rebuffers++
			}
			s.playhead = now + s.chunkDur
		} else {
			s.playhead += s.chunkDur
		}
		next := s.playhead - s.chunkDur
		if next < now {
			next = now
		}
		s.eng.At(next, s.issueFn)
	}
}

// adaptLadder is the throughput-rule ABR: pick the highest rung whose rate
// fits in 80% of the measured download throughput.
func (s *Session) adaptLadder(lat netsim.Time) {
	if lat <= 0 {
		s.ladderIdx = len(s.ladder) - 1
		return
	}
	tput := float64(s.chunkBytes()*8) * float64(netsim.Second) / float64(lat)
	idx := 0
	for i, r := range s.ladder {
		if float64(r) <= 0.8*tput {
			idx = i
		}
	}
	s.ladderIdx = idx
}
