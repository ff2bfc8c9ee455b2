package quant

import (
	"math"
	"math/rand"
	"testing"
)

// TestDot4nMatchesDot4: the assembly's four sums equal dot4's, for every
// len(x)%4, on random int32-range operands, on a mix of the edges −2³¹,
// 2³¹−1 and 0, and on rows of −2³¹ alone, whose products of 2⁶² wrap the
// sums.
func TestDot4nMatchesDot4(t *testing.T) {
	if !packed {
		t.Skip("this CPU runs dot4 only: no AVX2 or no OS support for the YMM state")
	}
	r := rand.New(rand.NewSource(34))
	edges := []int64{math.MinInt32, math.MaxInt32, 0}
	fills := map[string]func() int64{
		"random": func() int64 { return int64(int32(r.Uint32())) },
		"edges":  func() int64 { return edges[r.Intn(len(edges))] },
		"min":    func() int64 { return math.MinInt32 },
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 30, 32, 2048} {
		for name, fill := range fills {
			rows, x := make([]int64, 4*n), make([]int64, n)
			for i := range rows {
				rows[i] = fill()
			}
			for j := range x {
				x[j] = fill()
			}
			g0, g1, g2, g3 := dot4n(rows, x)
			w0, w1, w2, w3 := dot4(rows, x)
			if g0 != w0 || g1 != w1 || g2 != w2 || g3 != w3 {
				t.Errorf("n=%d %s: dot4n = %d %d %d %d, dot4 = %d %d %d %d", n, name, g0, g1, g2, g3, w0, w1, w2, w3)
			}
		}
	}
}
