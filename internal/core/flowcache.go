package core

import (
	"math/bits"
	"sort"

	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// This file implements the router's flow-consistency cache (paper §3.4): one
// open-addressing table of inline entries, linearly probed, so a miss
// allocates nothing; removal shifts the probe run back (no tombstones). The
// table grows 1.5× at ¾ load, so home slots scale a hash by the length.
//
// Idle expiry runs on a hashed timing wheel (Varghese & Lauck): the
// timeout horizon is divided into sweepWheelSlots ticks, and every cached
// entry parks a reference in the ring bucket of its expiry deadline. A sweep
// tick inspects only the bucket(s) that just came due, so per-tick work is
// proportional to the entries expiring around that tick — not to the cache
// size. Renewal is lazy: a cache hit only refreshes lastUsed; the wheel
// reference stays where it is, and when its bucket comes due the still-fresh
// entry is re-parked at its new deadline. References are FlowIDs, not table
// indices, because growth and removals move entries. Stale references (flow
// finished, or re-cached after a drop) are recognized by a slot mismatch and
// discarded in O(1).
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

// cacheEntry pins a snapshot for one flow; a nil model marks an empty table
// slot. slot is the absolute wheel slot holding this entry's current expiry
// reference (-1 when the sweeper is disabled); references found under any
// other slot are stale.
type cacheEntry struct {
	flow     netsim.FlowID
	model    *Model
	lastUsed netsim.Time
	slot     int64
}

// flowCache is the flow → entry table plus the expiry wheel.
type flowCache struct {
	table []cacheEntry
	n     int // live entries

	timeout netsim.Time
	tick    netsim.Time // slot width; 0 disables the wheel
	ring    [][]netsim.FlowID
	next    int64 // first absolute slot not yet processed
	parked  int   // references (live + stale) currently in the ring

	scratch []netsim.FlowID // bucket-processing buffer, reused per tick
}

func newFlowCache(timeout netsim.Time) *flowCache {
	fc := &flowCache{table: make([]cacheEntry, 16), timeout: timeout}
	if timeout > 0 {
		fc.tick = timeout / sweepWheelSlots
		if fc.tick <= 0 {
			fc.tick = 1
		}
		fc.ring = make([][]netsim.FlowID, int(timeout/fc.tick)+3)
	}
	return fc
}

// home returns f's home slot: the top bits of a Fibonacci hash, scaled to
// the table length by a 64×64→128 multiply.
func (fc *flowCache) home(f netsim.FlowID) int {
	hi, _ := bits.Mul64(uint64(f)*0x9e3779b97f4a7c15, uint64(len(fc.table)))
	return int(hi)
}

// find returns the index of f's entry and true, or the index of the empty
// slot that ends f's probe run and false. The table is never full.
func (fc *flowCache) find(f netsim.FlowID) (int, bool) {
	t := fc.table
	i := fc.home(f)
	for t[i].model != nil {
		if t[i].flow == f {
			return i, true
		}
		if i++; i == len(t) {
			i = 0
		}
	}
	return i, false
}

// get returns the entry for f, or nil. The pointer is valid until the next
// insert or remove. Zero allocations.
func (fc *flowCache) get(f netsim.FlowID) *cacheEntry {
	if i, ok := fc.find(f); ok {
		return &fc.table[i]
	}
	return nil
}

// insert caches f pinned to m, last used at now, and parks its expiry
// reference. The caller guarantees f is not present. It allocates only when
// the table grows.
func (fc *flowCache) insert(f netsim.FlowID, m *Model, now netsim.Time) {
	if 4*(fc.n+1) > 3*len(fc.table) {
		fc.grow()
	}
	i, _ := fc.find(f)
	e := &fc.table[i]
	*e = cacheEntry{flow: f, model: m, lastUsed: now}
	fc.n++
	fc.park(e)
}

// grow rehashes every entry into a table half as long again.
func (fc *flowCache) grow() {
	old := fc.table
	fc.table = make([]cacheEntry, len(old)+len(old)/2)
	for _, e := range old {
		if e.model != nil {
			i, _ := fc.find(e.flow)
			fc.table[i] = e
		}
	}
}

// remove deletes f's entry and returns the model it pinned. Every later
// entry of the probe run whose home does not lie cyclically in (hole, j]
// moves back into the hole, so no lookup ever crosses an empty slot to reach
// its entry. The wheel reference, if any, goes stale and is discarded when
// its bucket comes due.
func (fc *flowCache) remove(f netsim.FlowID) (*Model, bool) {
	hole, ok := fc.find(f)
	if !ok {
		return nil, false
	}
	t := fc.table
	m := t[hole].model
	for j := hole; ; {
		if j++; j == len(t) {
			j = 0
		}
		if t[j].model == nil {
			break
		}
		h := fc.home(t[j].flow)
		if hole < j && hole < h && h <= j || j < hole && (hole < h || h <= j) {
			continue // home in (hole, j]: moving it back would skip it
		}
		t[hole] = t[j]
		hole = j
	}
	t[hole] = cacheEntry{}
	fc.n--
	return m, true
}

// slotFor maps an expiry deadline to the first absolute slot whose tick time
// is strictly past it: processing slot s happens at the first tick with
// now >= s*tick, so rounding one slot up guarantees the entry is due (never
// scanned early; sweepWheelSlots says how late).
func (fc *flowCache) slotFor(deadline netsim.Time) int64 {
	return int64(deadline/fc.tick) + 1
}

// park stores e's expiry reference in the wheel bucket of its deadline and
// stamps the entry with the slot, superseding any stale reference.
func (fc *flowCache) park(e *cacheEntry) {
	if fc.tick <= 0 {
		e.slot = -1
		return
	}
	slot := fc.slotFor(e.lastUsed + fc.timeout)
	e.slot = slot
	idx := int(slot % int64(len(fc.ring)))
	fc.ring[idx] = append(fc.ring[idx], e.flow)
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
// Bulk drops iterate this — never table order — so eviction telemetry is
// identical between same-seed runs (the determinism invariant, DESIGN.md
// §4d). Sorting is O(n log n) but only runs on rare bulk operations; the
// periodic sweep path does not use it.
func (fc *flowCache) appendSortedFlows(buf []netsim.FlowID) []netsim.FlowID {
	for _, e := range fc.table {
		if e.model != nil {
			buf = append(buf, e.flow)
		}
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf
}
