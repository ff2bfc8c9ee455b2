package netsim

// FlowID identifies a transport flow. IDs are allocated by the transport
// layer and used as hash keys throughout (flow cache, FCT accounting),
// mirroring gopacket's hashable Endpoint/Flow idiom.
type FlowID uint64

// Packet is the unit of transfer. Packets are passed by pointer and reused
// where possible; entities must not retain a packet after handing it off.
type Packet struct {
	Flow FlowID
	Dst  int // destination node ID

	Seq  int64 // first byte carried (data) — cumulative byte sequence space
	Size int   // wire size in bytes, headers included

	Ack   bool  // true for pure ACK packets
	AckNo int64 // cumulative ACK: next byte expected by the receiver

	FIN bool // sender has no more data after this segment

	CE  bool // congestion experienced: set by ECN-marking queues
	ECE bool // echoed CE: set on ACKs by DCTCP-style receivers

	Prio int // priority band, 0 = highest (flow scheduling experiments)

	// App is an opaque application tag carried on the first segment of an
	// application message (actor request/response framing). Zero means "no
	// tag". The transport echoes it on retransmissions of that segment so
	// exactly one delivered copy surfaces it to the receiver app.
	App int64

	// Path optionally pins the exact sequence of switch node IDs to
	// traverse (XPath-style explicit path control, used by the load
	// balancing experiments). When nil, switches use their routing tables.
	Path []int
	Hop  int // index of the next entry in Path

	home *coordinator // the simulation whose free list it returns to, if any
	// freed guards FreePacket against a double free.
	freed bool
}

// HeaderBytes is the fixed per-packet header overhead (Ethernet + IP + TCP,
// rounded). Goodput accounting subtracts it from wire size.
const HeaderBytes = 58

// MSS is the maximum segment payload in bytes used by the transport.
const MSS = 1448

// AckSize is the wire size of a pure ACK.
const AckSize = HeaderBytes + 8

// PayloadBytes returns the application bytes carried by a data packet.
func (p *Packet) PayloadBytes() int {
	if p.Ack {
		return 0
	}
	n := p.Size - HeaderBytes
	if n < 0 {
		return 0
	}
	return n
}
