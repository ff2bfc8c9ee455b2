package quant

import (
	"math"
	"math/rand"
	"testing"
)

// TestDenseAVX2MatchesDot4: one denseAVX2 call equals the wide path, dot4
// over the four-row blocks and the row loop over the Out%4 left, for every
// Out%4 and In%4 and for In below, at and far above one vector. The operands
// are random int32-range values, a mix of the edges −2³¹, 2³¹−1 and 0, and
// rows and inputs of −2³¹ alone, whose products of 2⁶² wrap the sums. Every
// bias is a non-zero int64, so a row dropped or a bias added twice shows,
// and the word past dst must stay untouched.
func TestDenseAVX2MatchesDot4(t *testing.T) {
	if !packed {
		t.Skip("this CPU runs dot4 only: no AVX2 or no OS support for the YMM state")
	}
	r := rand.New(rand.NewSource(34))
	edges := []int64{math.MinInt32, math.MaxInt32, 0}
	fills := []struct {
		name string
		fill func() int64
	}{
		{"random", func() int64 { return int64(int32(r.Uint32())) }},
		{"edges", func() int64 { return edges[r.Intn(len(edges))] }},
		{"wrapping", func() int64 { return math.MinInt32 }},
	}
	const sentinel = 0x5ca1ab1e
	outs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32, 2048}
	ins := []int{1, 2, 3, 4, 5, 6, 7, 8, 30, 32, 2048}
	slab := make([]int64, 2048*2048)
	for _, out := range outs {
		for _, in := range ins {
			for _, f := range fills {
				l := &Layer{In: in, Out: out, w: slab[:out*in], B: make([]int64, out), wide: true}
				for i := range l.w {
					l.w[i] = f.fill()
				}
				for i := range l.B {
					l.B[i] = int64(r.Uint64()) | 1
				}
				x := make([]int64, in)
				for j := range x {
					x[j] = f.fill()
				}
				got, want := make([]int64, out+1), make([]int64, out)
				got[out] = sentinel
				denseAVX2(l.w, l.B, x, got[:out])
				l.dense(x, want)
				if got[out] != sentinel {
					t.Fatalf("%d→%d %s: denseAVX2 wrote past dst", in, out, f.name)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%d→%d %s: row %d = %d, dot4 and the row loop give %d", in, out, f.name, i, got[i], want[i])
					}
				}
			}
		}
	}
}
