package netsim

import "testing"

// TestFreePacketReturnsToItsSimulation pins the recycling rules: a packet
// goes back to the free list of the simulation that allocated it, whichever
// partition view frees it, and comes out zeroed; a packet no engine made is
// left to the GC; a second free panics either way.
func TestFreePacketReturnsToItsSimulation(t *testing.T) {
	root := NewParallelEngine(0)
	other := root.AddPartition()
	elsewhere := NewEngine()

	p := root.AllocPacket()
	p.Seq, p.Path = 7, []int{1}
	FreePacket(p)
	if q := other.AllocPacket(); q != p || q.Seq != 0 || q.Path != nil || q.freed {
		t.Fatalf("partition view got %p %+v, want the freed packet %p zeroed", q, *q, p)
	}
	FreePacket(p)
	if q := elsewhere.AllocPacket(); q == p {
		t.Fatal("a packet crossed into another simulation's free list")
	}

	plain := AllocPacket()
	FreePacket(plain)
	if len(root.co.free)+len(elsewhere.co.free) != 1 {
		t.Fatalf("free lists hold %d and %d packets, want only the root's one", len(root.co.free), len(elsewhere.co.free))
	}

	for _, q := range []*Packet{root.AllocPacket(), AllocPacket()} {
		FreePacket(q)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("second FreePacket of %p did not panic", q)
				}
			}()
			FreePacket(q)
		}()
	}
}
