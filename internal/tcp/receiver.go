package tcp

import (
	"slices"
	"sort"

	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// Receiver terminates a flow: it deduplicates segments, acknowledges each
// one selectively (echoing ECN marks DCTCP-style), and accounts goodput.
//
// Dedup state is everything below nextContig plus islands: the runs received
// beyond it, a sorted slice of disjoint, non-adjacent [start, end). A flow's
// segments tile its stream the same way on every (re)transmission, so a
// segment starting at seq has arrived exactly when seq is below nextContig or
// inside an island. In-order traffic keeps the slice empty and looks nothing
// up; memory is bounded by the reorder window, not the flow length.
type Receiver struct {
	Host *Host
	Flow netsim.FlowID
	Src  int // node to send ACKs to

	// OnDeliver, when set, fires for every new (non-duplicate) payload
	// byte range, with the bytes delivered and the current time. Used for
	// goodput time series.
	OnDeliver func(bytes int, now netsim.Time)
	// OnFIN fires when the FIN-bearing segment arrives; LiteFlow's flow
	// cache uses it to drop per-flow state (paper §3.4).
	OnFIN func(flow netsim.FlowID)
	// OnApp fires exactly once per application message: when the first
	// (tag-bearing) segment of a message pushed with Sender.Push arrives for
	// the first time. Duplicates from retransmission races are suppressed by
	// the dedup state. Actor session machines live entirely in this hook.
	OnApp func(tag int64, now netsim.Time)

	nextContig  int64    // every byte below this seq has arrived
	islands     []island // received runs beyond nextContig, sorted, gaps between
	uniqueBytes int64
	finSeen     bool

	// DupAcks counts ACKs re-sent for duplicate segments.
	DupAcks int64
}

// NewReceiver creates a receiver for flow on host h, ACKing towards src, and
// registers it with the host's demux table.
func NewReceiver(h *Host, flow netsim.FlowID, src int) *Receiver {
	r := &Receiver{Host: h, Flow: flow, Src: src}
	h.RegisterReceiver(r)
	return r
}

// UniqueBytes returns the distinct payload bytes received so far.
func (r *Receiver) UniqueBytes() int64 { return r.uniqueBytes }

// handleData processes one data segment: dedup, account, ACK.
func (r *Receiver) handleData(p *netsim.Packet) {
	payload := p.PayloadBytes()
	i := len(r.islands) // the first island starting above p.Seq; the last is likeliest
	if i > 0 && p.Seq < r.islands[i-1].start {
		i = sort.Search(i, func(k int) bool { return r.islands[k].start > p.Seq })
	}
	dup := p.Seq < r.nextContig || i > 0 && p.Seq < r.islands[i-1].end
	if !dup {
		if p.Seq == r.nextContig {
			r.nextContig += int64(payload)
			// Islands are never adjacent: the prefix reaches one at most.
			if len(r.islands) > 0 && r.islands[0].start == r.nextContig {
				r.nextContig = r.islands[0].end
				r.islands = slices.Delete(r.islands, 0, 1)
			}
		} else if payload > 0 {
			r.insert(i, p.Seq, p.Seq+int64(payload))
		}
		r.uniqueBytes += int64(payload)
		if r.OnDeliver != nil {
			r.OnDeliver(payload, r.Host.Eng.Now())
		}
		if p.App != 0 && r.OnApp != nil {
			r.OnApp(p.App, r.Host.Eng.Now())
		}
		if p.FIN && !r.finSeen {
			r.finSeen = true
			if r.OnFIN != nil {
				r.OnFIN(r.Flow)
			}
		}
	} else {
		r.DupAcks++
	}
	// Selective ACK for this segment; echo congestion marks.
	ack := r.Host.Eng.AllocPacket()
	ack.Flow, ack.Src, ack.Dst = r.Flow, r.Host.ID, r.Src
	ack.Ack, ack.AckNo, ack.ECE = true, p.Seq, p.CE
	ack.Size = netsim.AckSize
	r.Host.Transmit(ack)
}

// island is a run [start, end) of stream bytes received beyond nextContig.
type island struct{ start, end int64 }

// insert records the run [start, end) that arrived beyond nextContig, just
// ahead of island i, merging it with the islands it touches.
func (r *Receiver) insert(i int, start, end int64) {
	if i > 0 && r.islands[i-1].end == start {
		r.islands[i-1].end = end
		if i < len(r.islands) && r.islands[i].start == end {
			r.islands[i-1].end = r.islands[i].end
			r.islands = slices.Delete(r.islands, i, i+1)
		}
	} else if i < len(r.islands) && r.islands[i].start == end {
		r.islands[i].start = start
	} else {
		r.islands = slices.Insert(r.islands, i, island{start, end})
	}
}
