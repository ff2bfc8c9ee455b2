package tcp

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// refReceiver is the receiver's dedup state as a map from each out-of-order
// segment's start to its end, beside the contiguous prefix.
// FuzzReceiverIslands holds the island slice to it.
type refReceiver struct {
	nextContig, uniqueBytes int64
	pending                 map[int64]int64
}

// handle takes one segment and reports whether it was a duplicate.
func (r *refReceiver) handle(seq int64, payload int) (dup bool) {
	dup = seq < r.nextContig
	if !dup {
		_, dup = r.pending[seq]
	}
	if dup {
		return true
	}
	if seq == r.nextContig {
		r.nextContig += int64(payload)
		for end, ok := r.pending[r.nextContig]; ok; end, ok = r.pending[r.nextContig] {
			delete(r.pending, r.nextContig)
			r.nextContig = end
		}
	} else if payload > 0 {
		r.pending[seq] = seq + int64(payload)
	}
	r.uniqueBytes += int64(payload)
	return false
}

// FuzzReceiverIslands plays an arbitrary arrival order into a Receiver and
// into refReceiver. sizes tiles the stream into segments of 1..MSS bytes (an
// odd byte tags the segment, as the first segment of an app message is);
// each byte of order delivers segment order[i] mod n, so the script drops,
// duplicates and reorders at will. Every segment then arrives in order, which
// must close every hole. After each packet the dup verdict, nextContig,
// UniqueBytes and the OnApp call must agree, and the islands must be sorted,
// disjoint, non-adjacent and beyond nextContig.
func FuzzReceiverIslands(f *testing.F) {
	f.Add([]byte{255, 255, 255, 255}, []byte{0, 1, 2, 3})
	f.Add([]byte{255, 255, 255, 255, 255}, []byte{4, 3, 2, 1, 0})
	f.Add([]byte{7, 200, 1, 90, 255, 33}, []byte{1, 3, 5, 3, 2, 4, 0, 1})
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70}, []byte{6, 4, 2, 5, 1, 3})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255}, []byte{1, 2, 4, 5, 7, 2, 5}) // dups inside islands
	f.Add([]byte{255, 0, 0, 255}, []byte{1, 2, 2, 1})                                  // 1-byte segments
	f.Fuzz(func(t *testing.T, sizes, order []byte) {
		if len(sizes) == 0 || len(sizes) > 64 {
			return
		}
		type seg struct {
			seq  int64
			size int
			tag  int64
		}
		segs := make([]seg, len(sizes))
		var seq int64
		for i, b := range sizes {
			segs[i] = seg{seq: seq, size: 1 + int(b)*(netsim.MSS-1)/255}
			if b&1 == 1 {
				segs[i].tag = int64(i + 1)
			}
			seq += int64(segs[i].size)
		}
		eng := netsim.NewEngine()
		h := NewHost(eng, 2)
		h.SetEgress(netsim.NewLink(eng, &netsim.Sink{}, 1e9, netsim.Microsecond, netsim.NewDropTail(1<<20)))
		r := NewReceiver(h, 1, 1)
		var app int64
		r.OnApp = func(tag int64, _ netsim.Time) { app = tag }
		ref := &refReceiver{pending: make(map[int64]int64)}

		deliver := func(i int) {
			s := segs[i]
			dups, app0 := r.DupAcks, app
			app = 0
			r.handleData(&netsim.Packet{Flow: 1, Dst: 2, Seq: s.seq, Size: s.size + netsim.HeaderBytes, App: s.tag})
			wantDup := ref.handle(s.seq, s.size)
			if dup := r.DupAcks > dups; dup != wantDup {
				t.Fatalf("segment %d at %d: dup %v, reference %v", i, s.seq, dup, wantDup)
			}
			if wantApp := map[bool]int64{false: s.tag, true: 0}[wantDup]; app != wantApp {
				t.Fatalf("segment %d at %d: OnApp(%d), reference OnApp(%d)", i, s.seq, app, wantApp)
			}
			app = app0
			if r.nextContig != ref.nextContig || r.UniqueBytes() != ref.uniqueBytes {
				t.Fatalf("segment %d at %d: nextContig %d unique %d, reference %d %d",
					i, s.seq, r.nextContig, r.UniqueBytes(), ref.nextContig, ref.uniqueBytes)
			}
			prev := r.nextContig
			for k, is := range r.islands {
				if is.start <= prev || is.end <= is.start {
					t.Fatalf("after segment %d: island %d %v not beyond %d with a gap (islands %v, nextContig %d)",
						i, k, is, prev, r.islands, r.nextContig)
				}
				prev = is.end
			}
		}
		for _, o := range order {
			deliver(int(o) % len(segs))
		}
		for i := range segs {
			deliver(i)
		}
		if r.nextContig != seq || len(r.islands) != 0 {
			t.Fatalf("after every segment: nextContig %d of %d, %d islands left", r.nextContig, seq, len(r.islands))
		}
	})
}

// markLog is FixedRate recording, at each dup-threshold loss, the seqs that
// detectLoss has just queued for retransmission, in queue order.
type markLog struct {
	FixedRate
	s      *Sender
	marked []int64
}

func (m *markLog) OnLoss(l LossInfo) {
	if l.Timeout {
		return
	}
	q := m.s.rtxQueue[m.s.rtxHead:]
	n := 0
	for bytes := 0; bytes < l.LostBytes; n++ {
		bytes += q[len(q)-1-n].size
	}
	for _, seg := range q[len(q)-n:] {
		m.marked = append(m.marked, seg.seq)
	}
}

// TestLossScanMatchesFullWalk drives a sender through seeded scripts of
// dropped, reordered, duplicated and bogus ACKs, with stalls longer than a
// short RTO so that timeouts interleave. Before every ACK, the segment the
// sender resolves for it must be the one a seq→segment map of unacknowledged
// segments names. An ACK that acknowledges a segment must queue exactly what
// the full walk from outHead marks, in the same order, and leave nothing for
// that walk to mark afterwards.
func TestLossScanMatchesFullWalk(t *testing.T) {
	for _, sc := range []struct {
		name       string
		seed       int64
		size       int64
		appLimited bool
	}{
		{"unbounded", 1, 0, false},
		{"bounded", 2, 2_000_000, false},
		{"app-limited", 3, 0, true},
		{"app-limited-2", 4, 0, true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(sc.seed))
			eng := netsim.NewEngine()
			a := NewHost(eng, 1)
			unacked := map[int64]int{} // the reference: seq → size, unacknowledged
			seen := map[int64]bool{}
			var wire []int64 // seqs of data packets that reached the far end
			a.SetEgress(netsim.NewLink(eng, sinkFunc(func(p *netsim.Packet) {
				wire = append(wire, p.Seq)
				if !seen[p.Seq] {
					seen[p.Seq] = true
					unacked[p.Seq] = p.PayloadBytes()
				}
				netsim.FreePacket(p)
			}), 1e9, 20*netsim.Microsecond, netsim.NewDropTail(1<<20)))
			cc := &markLog{FixedRate: FixedRate{Bps: 200_000_000, Wnd: 48 * netsim.MSS}}
			s := NewSender(a, 1, 2, sc.size, cc)
			cc.s = s
			s.MinRTO = 3 * netsim.Millisecond
			if sc.appLimited {
				for i := 0; i < 2000; i++ {
					s.Push(1+rng.Int63n(4*netsim.MSS), int64(i+1))
				}
			}
			s.Start()

			var acked []int64
			maxRtx := 0
			// fullWalk lists what detectLoss marked before it walked from
			// scanSeq: every live segment below the threshold that is
			// neither acked nor lost and was sent no later than sentAt.
			fullWalk := func(highestAck int64, sentAt netsim.Time) (marks []int64) {
				threshold := highestAck - int64(s.dupThresh*netsim.MSS)
				for _, seg := range s.outstanding[s.outHead:] {
					maxRtx = max(maxRtx, seg.rtx)
					if seg.seq >= threshold {
						break
					}
					if !seg.acked && !seg.lost && seg.sentAt <= sentAt {
						marks = append(marks, seg.seq)
					}
				}
				return marks
			}
			ack := func(seq int64) {
				want, ok := unacked[seq]
				got := s.unacked(seq)
				if ok != (got != nil) || ok && (got.seq != seq || got.size != want) {
					t.Fatalf("ACK %d: sender resolved %+v, reference (%d, %v)", seq, got, want, ok)
				}
				if !ok {
					s.handleAck(&netsim.Packet{Flow: 1, Ack: true, AckNo: seq})
					return
				}
				sentAt := got.sentAt
				delete(unacked, seq)
				acked = append(acked, seq)
				got.acked = true // as handleAck has it when detectLoss runs
				wantMarks := fullWalk(max(s.highestAck, seq), sentAt)
				got.acked = false
				cc.marked = cc.marked[:0]
				s.handleAck(&netsim.Packet{Flow: 1, Ack: true, AckNo: seq})
				if !slices.Equal(cc.marked, wantMarks) {
					t.Fatalf("ACK %d: detectLoss queued %v, the full walk marks %v (scanSeq %d)", seq, cc.marked, wantMarks, s.scanSeq)
				}
				if left := fullWalk(s.highestAck, sentAt); len(left) > 0 {
					t.Fatalf("ACK %d: the full walk still marks %v (scanSeq %d)", seq, left, s.scanSeq)
				}
			}
			for step := 0; step < 20000 && !s.completed; step++ {
				switch r := rng.Intn(100); {
				case r < 60 && len(wire) > 0:
					i := rng.Intn(min(len(wire), 5)) // reorder within a few packets
					seq := wire[i]
					wire = append(wire[:i], wire[i+1:]...)
					if rng.Intn(100) >= 8 { // else the segment or its ACK is lost
						ack(seq)
					}
				case r < 68 && len(acked) > 0:
					ack(acked[rng.Intn(len(acked))]) // duplicate ACK
				case r < 72:
					ack(s.nextSeq + rng.Int63n(netsim.MSS)) // not a segment (yet)
				case r < 73:
					eng.RunUntil(eng.Now() + 5*netsim.Millisecond) // a stall: the RTO fires
				default:
					eng.RunUntil(eng.Now() + rng.Int63n(60*netsim.Microsecond))
				}
			}
			if s.Retransmits == 0 || s.Timeouts == 0 || maxRtx < 2 {
				t.Fatalf("script too tame: %d retransmits, %d timeouts, max %d retransmissions of one segment",
					s.Retransmits, s.Timeouts, maxRtx)
			}
		})
	}
}

// sinkFunc adapts a function to netsim.Handler.
type sinkFunc func(p *netsim.Packet)

func (f sinkFunc) HandlePacket(p *netsim.Packet) { f(p) }
