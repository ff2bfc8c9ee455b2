package actor

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/tcp"
	"github.com/liteflow-sim/liteflow/internal/topo"
	"github.com/liteflow-sim/liteflow/internal/workload"
)

func dctcp() tcp.CongestionControl { return cc.NewDCTCP() }

// fabric builds a small spine–leaf for actor tests: 8 hosts, DCTCP marking.
func fabric(eng *netsim.Engine) *topo.SpineLeaf {
	return topo.BuildSpineLeaf(eng, topo.DefaultSpineLeafOpts(4))
}

func TestWebSessionRequestLoop(t *testing.T) {
	eng := netsim.NewEngine()
	f := fabric(eng)
	m := NewMetrics()
	s := New(Opts{
		Class: Web, Client: f.Hosts[0], Servers: []*tcp.Host{f.Hosts[4]},
		BaseFlow: 100, Seed: 1, CC: dctcp, Metrics: m,
		ThinkMean: 5 * netsim.Millisecond, ReqBytes: 400,
		RespDist: workload.WebSearch(),
	})
	s.Launch(netsim.Millisecond)
	eng.RunUntil(2 * netsim.Second)

	if m.Sessions != 1 {
		t.Fatalf("Sessions = %d", m.Sessions)
	}
	if m.Requests < 10 {
		t.Fatalf("only %d requests in 2s with 5ms think; session stalled", m.Requests)
	}
	if m.Responses != m.Requests && m.Responses != m.Requests-1 {
		t.Errorf("responses %d vs requests %d: at most one may be in flight", m.Responses, m.Requests)
	}
	if m.Lat.N() == 0 || m.Lat.Quantile(0.5) <= 0 {
		t.Error("no response latency samples")
	}
	if m.BytesDown == 0 {
		t.Error("no response bytes delivered")
	}
}

func TestVideoSessionAdaptsAndPaces(t *testing.T) {
	eng := netsim.NewEngine()
	f := fabric(eng)
	m := NewMetrics()
	ladder := []int64{300e3, 750e3, 1500e3, 3000e3, 6000e3}
	s := New(Opts{
		Class: Video, Client: f.Hosts[1], Servers: []*tcp.Host{f.Hosts[5]},
		BaseFlow: 200, Seed: 2, CC: dctcp, Metrics: m,
		ReqBytes: 300, ChunkDur: 100 * netsim.Millisecond, Ladder: ladder,
	})
	s.Launch(0)
	eng.RunUntil(3 * netsim.Second)

	// On an idle 10 Gbps fabric the ABR must climb off the bottom rung and
	// sustain roughly one chunk per chunk duration.
	if m.Responses < 20 || m.Responses > 40 {
		t.Errorf("%d chunks in 3s at 100ms cadence, want ~30", m.Responses)
	}
	if avg := m.BitrateSum / m.Responses; avg < ladder[2] {
		t.Errorf("avg bitrate %d on an idle fabric, want ≥ %d", avg, ladder[2])
	}
	if m.Rebuffers > 2 {
		t.Errorf("%d rebuffers on an idle fabric", m.Rebuffers)
	}
}

func TestRPCFanoutIncast(t *testing.T) {
	eng := netsim.NewEngine()
	f := fabric(eng)
	m := NewMetrics()
	servers := []*tcp.Host{f.Hosts[4], f.Hosts[5], f.Hosts[6], f.Hosts[7]}
	s := New(Opts{
		Class: RPC, Client: f.Hosts[2], Servers: servers,
		BaseFlow: 300, Seed: 3, CC: dctcp, Metrics: m,
		ThinkMean: 10 * netsim.Millisecond, ReqBytes: 200, RespBytes: 20_000,
	})
	if s.Flows() != 8 {
		t.Fatalf("Flows() = %d, want 8 (an up/down pair per server)", s.Flows())
	}
	s.Launch(0)
	// Forced fire while a fan-out is likely in flight → IncastSkips path.
	s.Fire(netsim.Microsecond)
	eng.RunUntil(500 * netsim.Millisecond)

	if m.Responses < 5 {
		t.Fatalf("only %d fan-outs completed", m.Responses)
	}
	// Every completed fan-out delivered all four responses.
	if want := m.Responses * 4 * 20_000; m.BytesDown < want {
		t.Errorf("BytesDown = %d, want ≥ %d", m.BytesDown, want)
	}
	if m.IncastSkips == 0 {
		t.Error("forced fire during a fan-out must count an IncastSkip")
	}
}

func TestBulkSessionSaturates(t *testing.T) {
	eng := netsim.NewEngine()
	f := fabric(eng)
	m := NewMetrics()
	s := New(Opts{
		Class: Bulk, Client: f.Hosts[3], Servers: []*tcp.Host{f.Hosts[7]},
		BaseFlow: 400, Seed: 4, CC: dctcp, Metrics: m,
		ReqBytes: 200, RespBytes: 5_000_000,
	})
	s.Launch(0)
	eng.RunUntil(500 * netsim.Millisecond)
	// Back-to-back 5 MB downloads on a 10 Gbps access link: expect at
	// least a few hundred MB/s of goodput.
	gbps := float64(m.BytesDown*8) / 0.5 / 1e9
	if gbps < 1 {
		t.Errorf("bulk goodput %.2f Gbps, want ≥ 1 on a 10 Gbps fabric", gbps)
	}
	if m.Responses < 10 {
		t.Errorf("%d items fetched", m.Responses)
	}
}

// TestSessionsDeterministicAcrossDomains runs an actor mix on the partitioned
// engine and requires the client metrics recorded at d5da1b5, where 1, 2, 4
// and 8 worker domains all produced them. (amd64 values: think times and
// response sizes are float draws, and a platform that fuses multiply-adds may
// round one differently.)
func TestSessionsDeterministicAcrossDomains(t *testing.T) {
	eng := netsim.NewParallelEngine(1)
	f := fabric(eng)
	ms := make([]*Metrics, 8)
	var flow netsim.FlowID
	for h := 0; h < 8; h++ {
		ms[h] = NewMetrics()
		srv := f.Hosts[(h+4)%8]
		cls := []Class{Web, Video, RPC, Bulk}[h%4]
		o := Opts{
			Class: cls, Client: f.Hosts[h], Servers: []*tcp.Host{srv},
			BaseFlow: flow, Seed: uint64(h + 1), CC: dctcp, Metrics: ms[h],
			ThinkMean: 3 * netsim.Millisecond, ReqBytes: 300,
			RespDist:  workload.WebSearch(),
			RespBytes: 50_000,
			ChunkDur:  50 * netsim.Millisecond,
			Ladder:    []int64{300e3, 1500e3, 6000e3},
		}
		if cls == RPC {
			o.Servers = []*tcp.Host{f.Hosts[(h+3)%8], f.Hosts[(h+5)%8]}
		}
		s := New(o)
		flow += netsim.FlowID(s.Flows())
		s.Launch(netsim.Time(h) * netsim.Millisecond)
	}
	eng.RunUntil(300 * netsim.Millisecond)
	total := NewMetrics()
	total.Sessions = 0 // count only merged-in sessions
	for _, m := range ms {
		total.Merge(m)
	}
	got := fmt.Sprintf("sessions=%d requests=%d responses=%d bytesDown=%d rebuffers=%d bitrateSum=%d incastSkips=%d lat=%d",
		total.Sessions, total.Requests, total.Responses, total.BytesDown, total.Rebuffers, total.BitrateSum, total.IncastSkips, total.Lat.N())
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
		got += fmt.Sprintf(" %g", total.Lat.Quantile(q))
	}
	const want = "sessions=8 requests=522 responses=522 bytesDown=217819377 rebuffers=0 bitrateSum=72600000 incastSkips=0 lat=522" +
		" 43296 84168 118887 125816 5.970402409999961e+06 2.5104554e+07"
	if total.Responses == 0 {
		t.Fatal("degenerate run: no responses")
	}
	if runtime.GOARCH == "amd64" && got != want {
		t.Errorf("partitioned run moved:\n got %s\nwant %s", got, want)
	}
}
