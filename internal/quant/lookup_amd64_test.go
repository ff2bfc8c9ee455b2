package quant

import (
	"math/rand"
	"testing"
	"unsafe"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// TestEveryLookupArmMatchesReference runs lookup with packed forced off (the
// Go loops alone) and, on AVX2 hosts, forced on (lookupShift over the whole
// fours, the Go loop over the lanes left), and holds every lane to
// referenceLookup. The tables are a rising tanh at span 2¹⁶ and at the
// hidden layers' 2²⁸, one past the memo bound, a falling one, and sigmoid at
// outScale 1000; the vectors are 1–9, 16, 32, 48 and 2048 lanes long, the
// clamp edges tblMin±1 and tblMax±1, 0 and ±2⁶² turning up at every lane
// among in-range values, with a sentinel past v. Three layers sit just
// outside one of lookupShift's bounds each: span 2³², outScale 2³⁰, and a
// table whose last is 2³². They must take the Go loop and still match; at
// span 2³² and last 2³² lookupShift would not.
func TestEveryLookupArmMatchesReference(t *testing.T) {
	avx2 := packed
	t.Cleanup(func() { packed = avx2 })
	layer := func(act nn.Activation, accScale, outScale int64, size int) *Layer {
		l := &Layer{Act: act, accScale: accScale, outScale: outScale}
		l.useTable(size, 8)
		return l
	}
	// wide's table has 2³²+1 entries of which only buf exists; its
	// accumulators stay within tblMin+255, where idx+1 ≤ 16·255+1 < len(buf).
	buf := make([]int64, 4097)
	for i := range buf {
		buf[i] = int64(i*i%4099) - 2048
	}
	wide := layer(nn.Tanh, 1<<24, 1<<12, 4096)
	wide.table = wideTable(buf)
	cases := []struct {
		name string
		l    *Layer
		fast bool // inside lookupShift's bounds
	}{
		{"tanh span 2¹⁶", layer(nn.Tanh, 1<<12, 1<<12, 4096), true},
		{"tanh span 2²⁸", layer(nn.Tanh, 1<<24, 1<<12, 4096), true},
		{"unmemoised sigmoid", layer(nn.Sigmoid, 1<<12, 1<<12, maxMemoEntries+1), true},
		{"falling", fallingLayer(), true},
		{"sigmoid outScale 1000", layer(nn.Sigmoid, 1<<24, 1000, 4096), true},
		{"span 2³²", layer(nn.Tanh, 1<<28, 1<<12, 4096), false},
		{"outScale 2³⁰", layer(nn.Tanh, 1<<12, 1<<30, 2), false},
		{"last 2³²", wide, false},
	}
	arms := []bool{false}
	if avx2 {
		arms = append(arms, true)
	}
	const sentinel = 0x5ca1ab1e
	r := rand.New(rand.NewSource(50))
	for _, c := range cases {
		l := c.l
		span := l.tblMax - l.tblMin
		if l.tblShift == 0 {
			t.Fatalf("%s: span %d is no power of two: the test checks the dividing arm", c.name, span)
		}
		last := int64(len(l.table) - 1)
		if fast := span <= 1<<31 && last < 1<<32 && l.outScale < 1<<30; fast != c.fast {
			t.Fatalf("%s: span %d, last %d, outScale %d inside the bounds = %v", c.name, span, last, l.outScale, fast)
		}
		edges := []int64{l.tblMin - 1, l.tblMin, l.tblMin + 1, l.tblMax - 1, l.tblMax, l.tblMax + 1, 0, 1 << 62, -1 << 62}
		inRange := func() int64 { return l.tblMin + r.Int63n(span+1) }
		if l == wide {
			edges = []int64{l.tblMin - 1, l.tblMin, l.tblMin + 1, -1 << 62}
			inRange = func() int64 { return l.tblMin + r.Int63n(256) }
		}
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32, 48, 2048} {
			for rot := 0; rot < len(edges)+2; rot++ {
				accs := make([]int64, n)
				for i := range accs {
					if k := (i + rot) % (len(edges) + 2); k < len(edges) {
						accs[i] = edges[k]
					} else {
						accs[i] = inRange()
					}
				}
				for _, on := range arms {
					packed = on
					v := append(append(make([]int64, 0, n+1), accs...), sentinel)
					l.lookup(v[:n])
					if v[n] != sentinel {
						t.Fatalf("%s, %d lanes, packed=%v: lookup wrote past v", c.name, n, on)
					}
					for i, got := range v[:n] {
						if want := referenceLookup(l, accs[i]); got != want {
							t.Fatalf("%s, %d lanes, packed=%v: lane %d lookup(%d) = %d, reference = %d", c.name, n, on, i, accs[i], got, want)
						}
					}
				}
			}
		}
	}
	if !avx2 {
		t.Log("no AVX2: only the Go loops ran")
	}
}

// wideTable returns a table of 2³²+1 entries, padded, whose backing array
// is buf alone: a lookup on it may read no entry past len(buf).
// nocheckptr keeps the race detector's pointer checks from refusing the
// header, which claims more than buf's allocation.
//
//go:nocheckptr
func wideTable(buf []int64) []int64 {
	return unsafe.Slice(&buf[0], 1<<32+2)[:1<<32+1]
}
