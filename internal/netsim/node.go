package netsim

// Switch forwards packets between links. It supports two forwarding modes,
// checked in order:
//
//  1. Explicit paths (XPath analog): when a packet carries a Path, the switch
//     forwards on the port towards Path[Hop] and advances Hop.
//  2. Destination routes: exact-match routing table from destination node ID
//     to an ECMP group of ports; multi-port groups are sprayed per-flow with
//     a symmetric hash (gopacket FastHash idiom) so a flow sticks to a path.
//
// Packets with no matching route are counted and dropped — a loud counter
// rather than a silent loss, so topology bugs surface in tests.
type Switch struct {
	ID int

	ports map[int]*Link // neighbor node ID → egress link
	// routes[dst] is the ECMP group for destination node ID dst. It is
	// consulted once per packet, hence a slice and not a map; an ID beyond
	// it has no route, like an ID within it whose group is empty.
	routes   [][]*Link
	unrouted int64
}

// NewSwitch returns an empty switch with the given node ID.
func NewSwitch(id int) *Switch {
	return &Switch{ID: id, ports: make(map[int]*Link)}
}

// AddPort registers the egress link towards neighbor node ID.
func (s *Switch) AddPort(neighbor int, l *Link) { s.ports[neighbor] = l }

// Port returns the egress link towards the neighbor, or nil.
func (s *Switch) Port(neighbor int) *Link { return s.ports[neighbor] }

// AddRoute appends the ports reaching the given neighbors to the ECMP group
// for destination dst. Unknown neighbors panic: a route through a missing
// port is a topology construction bug, and so is a negative destination.
func (s *Switch) AddRoute(dst int, viaNeighbors ...int) {
	if dst < 0 {
		panic("netsim: route to a negative node ID")
	}
	if dst >= len(s.routes) {
		s.routes = append(s.routes, make([][]*Link, dst+1-len(s.routes))...)
	}
	for _, n := range viaNeighbors {
		l, ok := s.ports[n]
		if !ok {
			panic("netsim: route via unknown neighbor port")
		}
		s.routes[dst] = append(s.routes[dst], l)
	}
}

// Unrouted returns the number of packets dropped for lack of a route.
func (s *Switch) Unrouted() int64 { return s.unrouted }

// ecmpHash hashes the flow ID symmetrically so both directions of a flow pick
// the same member index given the same group size.
func (s *Switch) ecmpHash(f FlowID) uint64 {
	x := uint64(f)
	// SplitMix64 finalizer: cheap, well-distributed, deterministic.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HandlePacket forwards p according to the forwarding modes above.
func (s *Switch) HandlePacket(p *Packet) {
	// Mode 1: explicit path.
	if p.Path != nil && p.Hop < len(p.Path) {
		next := p.Path[p.Hop]
		if l, ok := s.ports[next]; ok {
			p.Hop++
			l.Send(p)
			return
		}
		// Fall through to table routing if the pinned hop is unknown.
	}
	// Mode 2: destination routes.
	var group []*Link
	if uint(p.Dst) < uint(len(s.routes)) {
		group = s.routes[p.Dst]
	}
	if len(group) == 0 {
		s.unrouted++
		FreePacket(p)
		return
	}
	l := group[0]
	if len(group) > 1 {
		l = group[int(s.ecmpHash(p.Flow)%uint64(len(group)))]
	}
	l.Send(p)
}

var _ Handler = (*Switch)(nil)

// Sink is a Handler that counts and discards everything it receives; useful
// as a traffic drain and in tests.
type Sink struct {
	Packets int64
	Bytes   int64
}

// HandlePacket counts p, recycles it into the packet pool, and drops it.
func (s *Sink) HandlePacket(p *Packet) {
	s.Packets++
	s.Bytes += int64(p.Size)
	FreePacket(p)
}

var _ Handler = (*Sink)(nil)
