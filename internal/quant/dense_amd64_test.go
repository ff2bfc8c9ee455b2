package quant

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestDense16MatchesDot4: one dense16 call equals the wide path, dot4 over
// the four-row blocks and the row loop over the Out%4 left, for every Out%4
// and In%16 and for In below, at and far above one step. The weights are
// random int16s bounded so each row's Σ|w| stays under 2¹⁶; the edges
// −2¹⁵ and 2¹⁵−1 side by side, then 0; or rows of Σ|w| = 2¹⁶−1 whose
// products with inputs of −2¹⁵ take a sum to 2³¹ − 2¹⁵, the most any
// accumulator can reach. The edge rows start one column further on in each
// row, so they cross every column, the padded tail too. Every
// bias is a non-zero int64, so a row dropped or a bias added twice shows,
// and the word past dst must stay untouched. The scratch holds garbage
// before each call, so a pack that leaves a padded column unwritten shows.
func TestDense16MatchesDot4(t *testing.T) {
	if !packed {
		t.Skip("this CPU runs dot4 only: no AVX2 or no OS support for the YMM state")
	}
	r := rand.New(rand.NewSource(34))
	outs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32, 2048}
	ins := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 30, 32, 33, 2048}
	const sentinel = 0x5ca1ab1e
	slab := make([]int64, 2048*2048)
	x16 := make([]int16, 2048)
	for _, out := range outs {
		for _, in := range ins {
			bound := min(math.MaxInt16, (1<<16-1)/int64(in))
			edges := []int64{math.MinInt16, math.MaxInt16, 0}
			fills := []struct {
				name string
				w    func(i, j int) int64
				x    func() int64
			}{
				{"random",
					func(int, int) int64 { return r.Int63n(2*bound+1) - bound },
					func() int64 { return int64(int16(r.Uint32())) }},
				{"edges",
					func(i, j int) int64 { return edges[min((j-i%in+in)%in, 2)] },
					func() int64 { return edges[r.Intn(len(edges))] }},
				{"row bound",
					func(i, j int) int64 { return -fullRow((j - i%in + in) % in) },
					func() int64 { return math.MinInt16 }},
			}
			for _, f := range fills {
				l := &Layer{In: in, Out: out, w: slab[:out*in], B: make([]int64, out)}
				for i := 0; i < out; i++ {
					for j := range l.row(i) {
						l.row(i)[j] = f.w(i, j)
					}
				}
				for i := range l.B {
					l.B[i] = int64(r.Uint64()) | 1
				}
				size := l.packedSize()
				if size == 0 {
					t.Fatalf("%d→%d %s: the weights do not fit the packed tier", in, out, f.name)
				}
				l.pack16(make([]int16, size))
				w16 := l.w16
				l.w16 = nil // l.dense runs dot4 and the row loop
				x := make([]int64, in)
				for j := range x {
					x[j] = f.x()
				}
				for j := range x16 {
					x16[j] = int16(r.Uint32())
				}
				got, want := make([]int64, out+1), make([]int64, out)
				got[out] = sentinel
				if !dense16(w16, l.B, x, x16[:stride16(in)], got[:out]) {
					t.Fatalf("%d→%d %s: dense16 refused inputs inside int16", in, out, f.name)
				}
				l.dense(x, x16, want)
				if got[out] != sentinel {
					t.Fatalf("%d→%d %s: dense16 wrote past dst", in, out, f.name)
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

// fullRow is weight k of a row whose Σ|w| is 2¹⁶−1, the most the packed tier
// admits: 2¹⁵−1, 2¹⁵−1, 1, then zeros (a row of one or two weights stops
// short of it).
func fullRow(k int) int64 {
	return max(0, min(math.MaxInt16, (1<<16-1)-int64(k)*math.MaxInt16))
}

// TestDense16RefusesInputsOutsideInt16: one input outside int16, at any
// column, makes dense16 return false and leave dst as it was, however its
// low 16 or 32 bits look; inputs at the int16 bounds pass.
func TestDense16RefusesInputsOutsideInt16(t *testing.T) {
	if !packed {
		t.Skip("this CPU runs dot4 only: no AVX2 or no OS support for the YMM state")
	}
	const in, out = 37, 5
	l := &Layer{In: in, Out: out, w: make([]int64, in*out), B: make([]int64, out)}
	for i := range l.w {
		l.w[i] = int64(i%7) - 3
	}
	l.pack16(make([]int16, l.packedSize()))
	w16 := l.w16
	x16 := make([]int16, stride16(in))
	for _, bad := range []int64{math.MaxInt16 + 1, math.MinInt16 - 1, 1 << 16, 1 << 32, -1 << 32, 1 << 48, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64} {
		for _, j := range []int{0, 15, 16, 31, 32, 36} {
			x := make([]int64, in)
			x[j] = bad
			dst := []int64{1, 2, 3, 4, 5}
			if dense16(w16, l.B, x, x16, dst) || !slices.Equal(dst, []int64{1, 2, 3, 4, 5}) {
				t.Errorf("x[%d] = %d: dense16 took the step or wrote dst (%v)", j, bad, dst)
			}
		}
	}
	for _, ok := range []int64{math.MaxInt16, math.MinInt16} {
		x := make([]int64, in)
		x[36] = ok
		if !dense16(w16, l.B, x, x16, make([]int64, out)) {
			t.Errorf("x[36] = %d: dense16 refused an input inside int16", ok)
		}
	}
}
