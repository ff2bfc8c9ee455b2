package netsim

// AllocPacket returns a zeroed packet from this simulation's free list, or a
// new one. Producers (transports, traffic sources) allocate here; the entity
// that terminally consumes a packet — a drop point, a sink, or the
// demultiplexer after the endpoint handler returns — releases it with
// FreePacket. All partition views of a simulation share the list and run on
// one goroutine, so it needs no lock, and unlike a sync.Pool it outlives a GC.
func (e *Engine) AllocPacket() *Packet {
	co := e.co
	if len(co.free) == 0 {
		return &Packet{home: co}
	}
	p := co.free[len(co.free)-1]
	co.free = co.free[:len(co.free)-1]
	*p = Packet{home: co}
	return p
}

// AllocPacket returns a zeroed packet of no simulation, for callers without
// an engine; FreePacket leaves it to the GC.
func AllocPacket() *Packet { return new(Packet) }

// FreePacket returns p to the free list of the simulation that allocated it.
// Freeing the same packet twice without an intervening AllocPacket is a
// use-after-free in the making and panics. Freeing nil is a no-op.
func FreePacket(p *Packet) {
	if p == nil {
		return
	}
	if p.freed {
		panic("netsim: packet double-free")
	}
	p.freed = true
	if p.home != nil {
		p.home.free = append(p.home.free, p)
	}
}
