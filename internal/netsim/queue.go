package netsim

// Queue is the buffering discipline attached to a link's egress. Enqueue
// reports false when the packet was dropped. Implementations are not
// concurrency-safe; the engine is single-threaded.
type Queue interface {
	Enqueue(p *Packet) bool
	Dequeue() *Packet
	Bytes() int // bytes queued
}

// DropTail is a FIFO queue bounded by bytes, with optional DCTCP-style ECN
// marking: packets enqueued while the queue holds at least MarkBytes get CE
// set. MarkBytes == 0 disables marking.
type DropTail struct {
	CapBytes  int // drop packets that would push the queue beyond this
	MarkBytes int // ECN marking threshold K; 0 = no marking

	pkts  []*Packet
	head  int
	bytes int
	drops int
}

// NewDropTail returns a FIFO queue holding at most capBytes.
func NewDropTail(capBytes int) *DropTail {
	return &DropTail{CapBytes: capBytes}
}

// NewECNQueue returns a FIFO queue with capacity capBytes that marks CE on
// packets arriving when the backlog is at least markBytes.
func NewECNQueue(capBytes, markBytes int) *DropTail {
	return &DropTail{CapBytes: capBytes, MarkBytes: markBytes}
}

// Enqueue appends p unless it would overflow the byte capacity.
func (q *DropTail) Enqueue(p *Packet) bool {
	if q.bytes+p.Size > q.CapBytes {
		q.drops++
		return false
	}
	if q.MarkBytes > 0 && q.bytes >= q.MarkBytes {
		p.CE = true
	}
	q.pkts = append(q.pkts, p)
	q.bytes += p.Size
	return true
}

// Dequeue removes and returns the oldest packet, or nil when empty.
func (q *DropTail) Dequeue() *Packet {
	if q.head >= len(q.pkts) {
		return nil
	}
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	q.bytes -= p.Size
	// Compact once the dead prefix dominates, amortized O(1).
	if q.head > 64 && q.head*2 >= len(q.pkts) {
		n := copy(q.pkts, q.pkts[q.head:])
		q.pkts = q.pkts[:n]
		q.head = 0
	}
	return p
}

// Len returns the number of queued packets.
func (q *DropTail) Len() int { return len(q.pkts) - q.head }

// Bytes returns the number of queued bytes.
func (q *DropTail) Bytes() int { return q.bytes }

// Drops returns the cumulative count of packets rejected by Enqueue.
func (q *DropTail) Drops() int { return q.drops }

// NumPrioBands is the number of strict-priority bands in a PrioQueue,
// matching the 8 hardware queues of commodity switches used by pFabric-style
// schedulers.
const NumPrioBands = 8

// PrioQueue is a strict-priority queue: band 0 drains first. Each band is a
// drop-tail FIFO; the byte capacity is shared across bands (a shared-buffer
// switch model). ECN marking applies on the total backlog.
type PrioQueue struct {
	CapBytes  int
	MarkBytes int

	bands [NumPrioBands]DropTail
	bytes int
}

// NewPrioQueue returns a strict-priority queue with shared capacity capBytes
// and ECN threshold markBytes (0 disables marking).
func NewPrioQueue(capBytes, markBytes int) *PrioQueue {
	q := &PrioQueue{CapBytes: capBytes, MarkBytes: markBytes}
	for i := range q.bands {
		// Band capacity is enforced at the shared level; make each band
		// individually unbounded.
		q.bands[i].CapBytes = int(^uint(0) >> 1)
	}
	return q
}

// Enqueue places p into its priority band unless the shared buffer is full.
func (q *PrioQueue) Enqueue(p *Packet) bool {
	if q.bytes+p.Size > q.CapBytes {
		return false
	}
	if q.MarkBytes > 0 && q.bytes >= q.MarkBytes {
		p.CE = true
	}
	band := p.Prio
	if band < 0 {
		band = 0
	}
	if band >= NumPrioBands {
		band = NumPrioBands - 1
	}
	q.bands[band].Enqueue(p)
	q.bytes += p.Size
	return true
}

// Dequeue returns the oldest packet from the highest-priority non-empty band.
func (q *PrioQueue) Dequeue() *Packet {
	for i := range q.bands {
		if q.bands[i].Len() > 0 {
			p := q.bands[i].Dequeue()
			q.bytes -= p.Size
			return p
		}
	}
	return nil
}

// Bytes returns the total queued bytes across bands.
func (q *PrioQueue) Bytes() int { return q.bytes }
