//go:build !amd64

package quant

// Off amd64 the dense step is dot4 and the row loop alone, and lookup runs
// its Go loops.

const packed = false

func dense16(w []int16, b, x []int64, x16 []int16, dst []int64) bool {
	panic("quant: dense16 off amd64")
}

func lookupShift(v, padded []int64, tblMin, tblMax, last int64, shift uint) {
	panic("quant: lookupShift off amd64")
}
