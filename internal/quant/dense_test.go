package quant

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// TestPackedTierBoundary: the row test that keeps a layer on the packed tier
// admits exactly weights inside int16 with Σ|w| below 2¹⁶, and one row past
// it keeps the whole layer off.
func TestPackedTierBoundary(t *testing.T) {
	for _, c := range []struct {
		row  []int64
		fits bool
	}{
		{[]int64{0}, true},
		{[]int64{math.MaxInt16}, true}, {[]int64{math.MinInt16}, true},
		{[]int64{math.MaxInt16 + 1}, false}, {[]int64{math.MinInt16 - 1}, false},
		{[]int64{1 << 32}, false}, {[]int64{math.MinInt64}, false},
		{[]int64{math.MinInt16, math.MaxInt16}, true},          // Σ|w| = 2¹⁶−1
		{[]int64{math.MinInt16, math.MinInt16}, false},         // 2¹⁶
		{[]int64{math.MaxInt16, -math.MaxInt16, 1}, true},      // 2¹⁶−1
		{[]int64{math.MaxInt16, -math.MaxInt16, 1, -1}, false}, // 2¹⁶
	} {
		if got := fitsPacked(c.row); got != c.fits {
			t.Errorf("fitsPacked(%v) = %v, want %v", c.row, got, c.fits)
		}
		l := &Layer{In: len(c.row), Out: 2, w: append(make([]int64, len(c.row)), c.row...)}
		if got := l.packedSize() != 0; got != c.fits {
			t.Errorf("a zero row and %v: on the tier = %v, want %v", c.row, got, c.fits)
		}
	}
}

// FuzzDenseMatchesReference writes raw int64 inputs, weights and biases from
// the fuzz bytes into a quantized 3-layer net and holds Infer and InferWith
// to referenceInfer. Each selector byte picks 0, one of the four values
// either side of the int32 bounds, MinInt64, MaxInt64, a 4-byte int32 or an
// 8-byte int64, so weights and inputs on and off the packed tier all occur;
// In runs from 1 to 40, so every In%16 does too. The inputs come first, then
// every layer's weights and biases in order; whatever the bytes do not reach
// keeps its quantized value. A hidden byte of 0xff makes
// the hidden layer 2048 wide, the fleet canary's, so every output row of the
// head is 2048 wide.
func FuzzDenseMatchesReference(f *testing.F) {
	f.Add(uint8(7), uint8(8), uint8(0x1f), []byte{})
	f.Add(uint8(7), uint8(8), uint8(0x1f), []byte{1})
	f.Add(uint8(3), uint8(4), uint8(0x0c), []byte{0, 0, 0, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(11), uint8(5), uint8(0x22), []byte{3, 4, 8, 0x80, 0, 0, 0, 5, 6, 2})
	f.Add(uint8(3), uint8(4), uint8(0x1c), []byte{1, 1, 1, 1, 9, 0, 0, 0, 0, 0, 1, 0, 0}) // w[0][0] = 1<<40
	// In < 4, with Out%4 of 3 and then 2: the whole row is the masked tail.
	f.Add(uint8(1), uint8(2), uint8(0x04), []byte{1, 2, 1, 2, 1, 2, 1, 2, 2, 2, 2, 2, 0, 1})
	// Out%4 of 1, then of 3, on three inputs.
	f.Add(uint8(2), uint8(4), uint8(0x1a), []byte{2, 2, 2, 7, 0xff, 0xff, 0xff, 0x7f, 1})
	// Out%4 of 2 on one input, then a head of three rows.
	f.Add(uint8(0), uint8(9), uint8(0x08), []byte{1, 2, 0, 1, 2, 0, 1, 2, 0, 1})
	// One 2048-wide row: the canary's 4→2048→1 shape, tanh in both layers.
	f.Add(uint8(3), uint8(0xff), uint8(0x02), []byte{1, 2, 1, 2})
	// The int16 edges as inputs: 2¹⁵−1, −2¹⁵+1, −2¹⁵, then 2³¹−1.
	f.Add(uint8(3), uint8(4), uint8(0x0c), []byte{7, 0xff, 0x7f, 0, 0, 7, 0x01, 0x80, 0xff, 0xff, 7, 0, 0x80, 0xff, 0xff, 1})
	// A first row of 2¹⁵−1, −2¹⁵+1, 1 (Σ|w| = 2¹⁶−1, still packed), fed
	// −2¹⁵, 2¹⁵−1, −2¹⁵.
	f.Add(uint8(2), uint8(5), uint8(0x04), []byte{
		7, 0, 0x80, 0xff, 0xff, 7, 0xff, 0x7f, 0, 0, 7, 0, 0x80, 0xff, 0xff,
		7, 0xff, 0x7f, 0, 0, 7, 0x01, 0x80, 0xff, 0xff, 7, 1, 0, 0, 0})
	// The same row with its last weight 2: Σ|w| = 2¹⁶ takes layer 0 off.
	f.Add(uint8(2), uint8(5), uint8(0x04), []byte{
		7, 0, 0x80, 0xff, 0xff, 7, 0xff, 0x7f, 0, 0, 7, 0, 0x80, 0xff, 0xff,
		7, 0xff, 0x7f, 0, 0, 7, 0x01, 0x80, 0xff, 0xff, 7, 2, 0, 0, 0})
	// In = 16, 17 and 31: a whole step, one past it, one short of two.
	f.Add(uint8(15), uint8(3), uint8(0x1c), []byte{7, 0xff, 0x7f, 0, 0})
	f.Add(uint8(16), uint8(6), uint8(0x0c), []byte{7, 0, 0x80, 0xff, 0xff})
	f.Add(uint8(30), uint8(7), uint8(0x10), []byte{0, 0, 7, 0xff, 0x7f, 0, 0})
	// Two weights of −2¹⁵ (Σ|w| = 2¹⁶) times two inputs of −2¹⁵: 2³¹, which
	// one VPMADDWD pair would wrap, so the row bound must keep the layer off.
	f.Add(uint8(1), uint8(4), uint8(0x0c), []byte{
		7, 0, 0x80, 0xff, 0xff, 7, 0, 0x80, 0xff, 0xff, 7, 0, 0x80, 0xff, 0xff, 7, 0, 0x80, 0xff, 0xff})
	// A linear 1→4→1 net with hidden biases 2²⁰, head weights 2¹² (1.0) and
	// head bias 2²¹, past what rescaling rounds away: a bias dropped or
	// added twice, in a block or a ragged row, moves the output.
	f.Add(uint8(0), uint8(3), uint8(0x00), []byte{
		7, 5, 0, 0, 0,
		7, 3, 0, 0, 0, 7, 0, 0, 0x10, 0, 7, 3, 0, 0, 0, 7, 0, 0, 0x10, 0,
		7, 3, 0, 0, 0, 7, 0, 0, 0x10, 0, 7, 3, 0, 0, 0, 7, 0, 0, 0x10, 0,
		7, 0, 0x10, 0, 0, 7, 0, 0x10, 0, 0, 7, 0, 0x10, 0, 0, 7, 0, 0x10, 0, 0, 7, 0, 0, 0x20, 0})
	f.Fuzz(func(t *testing.T, inB, hiddenB, actB uint8, data []byte) {
		sizes := []int{1 + int(inB)%40, 1 + int(hiddenB)%12, 1 + int(actB>>2)%8}
		if hiddenB == 0xff {
			sizes[1] = 2048
		}
		act := nn.Activation(actB % 4)
		p := Quantize(nn.New(sizes, []nn.Activation{act, act}, int64(inB)), DefaultConfig())

		next := func() (int64, bool) {
			if len(data) == 0 {
				return 0, false
			}
			c := data[0]
			data = data[1:]
			var raw [8]byte
			switch c % 10 {
			case 0:
				return 0, true
			case 1:
				return math.MaxInt32, true
			case 2:
				return math.MinInt32, true
			case 3:
				return math.MaxInt32 + 1, true
			case 4:
				return math.MinInt32 - 1, true
			case 5:
				return math.MaxInt64, true
			case 6:
				return math.MinInt64, true
			case 7:
				data = data[copy(raw[:4], data):]
				return int64(int32(binary.LittleEndian.Uint32(raw[:4]))), true
			}
			data = data[copy(raw[:], data):]
			return int64(binary.LittleEndian.Uint64(raw[:])), true
		}
		in := make([]int64, sizes[0])
		for j := range in {
			in[j] = int64(j+1) * 1000
			if v, ok := next(); ok {
				in[j] = v
			}
		}
		for _, l := range p.Layers {
			for i := 0; i < l.Out; i++ {
				for j := 0; j < l.In; j++ {
					if v, ok := next(); ok {
						l.SetWeight(i, j, v)
					}
				}
				if v, ok := next(); ok {
					l.B[i] = v
				}
			}
		}
		checkAgainstReference(t, p, in, "fuzzed operands")
	})
}
