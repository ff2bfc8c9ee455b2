package netsim

import "sync"

// packetPool recycles Packet objects across the whole process. Packets are
// zeroed on allocation, so pool reuse order (which varies when the harness
// runs experiments in parallel) cannot leak state between uses.
var packetPool = sync.Pool{New: func() interface{} { return new(Packet) }}

// AllocPacket returns a zeroed packet, reusing a freed one when available.
// Producers (transports, traffic sources) allocate here; the entity that
// terminally consumes a packet — a drop point, a sink, or the demultiplexer
// after the endpoint handler returns — releases it with FreePacket.
func AllocPacket() *Packet {
	p := packetPool.Get().(*Packet)
	*p = Packet{}
	return p
}

// FreePacket recycles p. Freeing the same packet twice without an
// intervening AllocPacket is a use-after-free in the making and panics.
// Freeing nil is a no-op. Packets constructed directly (tests, external
// producers) may be freed too; they simply join the pool.
func FreePacket(p *Packet) {
	if p == nil {
		return
	}
	if p.freed {
		panic("netsim: packet double-free")
	}
	p.freed = true
	packetPool.Put(p)
}
