package quant

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// TestFitsInt32Boundary: the test that sends a layer or a step to dot4
// admits exactly the int32 range, whether it looks at one value or at the
// worst of a slice.
func TestFitsInt32Boundary(t *testing.T) {
	for _, c := range []struct {
		v    int64
		fits bool
	}{
		{0, true}, {-1, true},
		{math.MaxInt32, true}, {math.MinInt32, true},
		{math.MaxInt32 + 1, false}, {math.MinInt32 - 1, false},
		{1 << 32, false}, {math.MaxInt64, false}, {math.MinInt64, false},
	} {
		if got := fitsInt32(c.v); got != c.fits {
			t.Errorf("fitsInt32(%d) = %v, want %v", c.v, got, c.fits)
		}
		if got := allFitInt32([]int64{7, c.v, -7}); got != c.fits {
			t.Errorf("allFitInt32(7, %d, -7) = %v, want %v", c.v, got, c.fits)
		}
	}
}

// FuzzDenseMatchesReference writes raw int64 inputs, weights and biases from
// the fuzz bytes into a quantized 3-layer net and holds Infer and InferWith
// to referenceInfer. Each selector byte picks 0, one of the four values
// either side of the int32 bounds, MinInt64, MaxInt64, a 4-byte int32 or an
// 8-byte int64, so narrow and wide weights and inputs all occur. The inputs
// come first, then every layer's weights and biases in order; whatever the
// bytes do not reach keeps its quantized value. A hidden byte of 0xff makes
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
	f.Fuzz(func(t *testing.T, inB, hiddenB, actB uint8, data []byte) {
		sizes := []int{1 + int(inB)%12, 1 + int(hiddenB)%12, 1 + int(actB>>2)%8}
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
