package core

import (
	"sort"

	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// This file implements the router's flow-consistency cache (paper §3.4): one
// flow → entry map, the paper's structure, with amortized incremental
// eviction. Idle expiry runs on a hashed timing wheel (Varghese & Lauck): the
// timeout horizon is divided into sweepWheelSlots ticks, and every cached
// entry parks a reference in the ring bucket of its expiry deadline. A sweep
// tick inspects only the bucket(s) that just came due, so per-tick work is
// proportional to the entries expiring around that tick — not to the cache
// size. Renewal is lazy: a cache hit only refreshes lastUsed; the wheel
// reference stays where it is, and when its bucket comes due the still-fresh
// entry is re-parked at its new deadline. Stale references (flow finished, or
// re-cached after a drop) are recognized by a slot mismatch and discarded in
// O(1).
//
// The wheel ring is sized timeout/tick+3: deadlines reach at most one full
// timeout past now, and placement rounds one slot up, so at most
// timeout/tick+2 distinct absolute slots are live at once. With the ring
// strictly larger than that span, two live slots can never alias the same
// bucket; only stale references ever share one.

// sweepWheelSlots is how many ticks the timeout horizon is divided into: the
// sweeper fires every FlowCacheTimeout/sweepWheelSlots, and an idle entry is
// evicted less than two ticks after its deadline (slotFor rounds the
// deadline up to a slot boundary; the ticks keep the phase of the moment the
// sweeper armed, so the boundary's slot is processed up to one tick later).
const sweepWheelSlots = 64

// cacheEntry pins a snapshot for one flow. slot is the absolute wheel slot
// holding this entry's current expiry reference (-1 when the sweeper is
// disabled); references found under any other slot are stale.
type cacheEntry struct {
	model    *Model
	lastUsed netsim.Time
	slot     int64
}

// flowCache is the flow → entry map plus the expiry wheel.
type flowCache struct {
	entries map[netsim.FlowID]*cacheEntry

	timeout netsim.Time
	tick    netsim.Time // slot width; 0 disables the wheel
	ring    [][]netsim.FlowID
	next    int64 // first absolute slot not yet processed
	parked  int   // references (live + stale) currently in the ring

	scratch []netsim.FlowID // bucket-processing buffer, reused per tick
}

func newFlowCache(timeout netsim.Time) *flowCache {
	fc := &flowCache{entries: make(map[netsim.FlowID]*cacheEntry), timeout: timeout}
	if timeout > 0 {
		fc.tick = timeout / sweepWheelSlots
		if fc.tick <= 0 {
			fc.tick = 1
		}
		fc.ring = make([][]netsim.FlowID, int(timeout/fc.tick)+3)
	}
	return fc
}

// get returns the entry for f, or nil. Zero allocations.
func (fc *flowCache) get(f netsim.FlowID) *cacheEntry {
	return fc.entries[f]
}

// insert adds a new entry and parks its expiry reference. The caller
// guarantees f is not present.
func (fc *flowCache) insert(f netsim.FlowID, e *cacheEntry) {
	fc.entries[f] = e
	fc.park(f, e)
}

// remove deletes f's entry. The wheel reference, if any, goes stale and is
// discarded when its bucket comes due.
func (fc *flowCache) remove(f netsim.FlowID) (*cacheEntry, bool) {
	e, ok := fc.entries[f]
	delete(fc.entries, f)
	return e, ok
}

// slotFor maps an expiry deadline to the first absolute slot whose tick time
// is strictly past it: processing slot s happens at the first tick with
// now >= s*tick, so rounding one slot up guarantees the entry is due (never
// scanned early; sweepWheelSlots says how late).
func (fc *flowCache) slotFor(deadline netsim.Time) int64 {
	return int64(deadline/fc.tick) + 1
}

// park stores f's expiry reference in the wheel bucket of its deadline and
// stamps the entry with the slot, superseding any stale reference.
func (fc *flowCache) park(f netsim.FlowID, e *cacheEntry) {
	if fc.tick <= 0 {
		e.slot = -1
		return
	}
	slot := fc.slotFor(e.lastUsed + fc.timeout)
	e.slot = slot
	idx := int(slot % int64(len(fc.ring)))
	fc.ring[idx] = append(fc.ring[idx], f)
	fc.parked++
}

// takeBucket moves the ring bucket for absolute slot s into the reusable
// scratch buffer and empties it in place, so renewals processed by the
// caller can re-park into the same ring index (one revolution ahead)
// without being re-scanned this tick.
func (fc *flowCache) takeBucket(s int64) []netsim.FlowID {
	idx := int(s % int64(len(fc.ring)))
	bucket := fc.ring[idx]
	if len(bucket) == 0 {
		return nil
	}
	fc.scratch = append(fc.scratch[:0], bucket...)
	fc.ring[idx] = bucket[:0]
	fc.parked -= len(fc.scratch)
	return fc.scratch
}

// resetWheel discards every parked reference (bulk drop / cache disable).
func (fc *flowCache) resetWheel() {
	for i := range fc.ring {
		fc.ring[i] = fc.ring[i][:0]
	}
	fc.parked = 0
}

// appendSortedFlows appends every cached flow ID to buf in ascending order.
// Bulk drops iterate this — never Go map order — so eviction telemetry is
// identical between same-seed runs (the determinism invariant, DESIGN.md
// §4d). Sorting is O(n log n) but only runs on rare bulk operations; the
// periodic sweep path does not use it.
func (fc *flowCache) appendSortedFlows(buf []netsim.FlowID) []netsim.FlowID {
	for f := range fc.entries {
		buf = append(buf, f)
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf
}
