package quant

import (
	"math/rand"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// TestEveryLookupArmMatchesReference runs lookup with packed forced off (the
// Go loops alone) and, on AVX2 hosts, forced on (lookupShift over the whole
// fours, the Go loop over the lanes left), and holds every lane to
// referenceLookup. The tables are the hidden layers' rising tanh, a falling
// one, sigmoid at C = 1000 and tanh at C = MaxOutputScale, the largest
// |hi-lo|; the vectors are 1–9, 16, 32, 48 and 2048 lanes long, the clamp
// edges tblMin±1 and tblMax±1, 0 and ±2⁶² turning up at every lane among
// in-range values, with a sentinel past v.
func TestEveryLookupArmMatchesReference(t *testing.T) {
	avx2 := packed
	t.Cleanup(func() { packed = avx2 })
	cases := []struct {
		name string
		l    *Layer
	}{
		{"tanh hidden", lutLayer(nn.Tanh, actScale)},
		{"falling", fallingLayer()},
		{"sigmoid C = 1000", lutLayer(nn.Sigmoid, 1000)},
		{"tanh C = MaxOutputScale", lutLayer(nn.Tanh, MaxOutputScale)},
	}
	arms := []bool{false}
	if avx2 {
		arms = append(arms, true)
	}
	const sentinel = 0x5ca1ab1e
	r := rand.New(rand.NewSource(50))
	for _, c := range cases {
		l := c.l
		edges := []int64{tblMin - 1, tblMin, tblMin + 1, tblMax - 1, tblMax, tblMax + 1, 0, 1 << 62, -1 << 62}
		inRange := func() int64 { return tblMin + r.Int63n(tblMax-tblMin+1) }
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
