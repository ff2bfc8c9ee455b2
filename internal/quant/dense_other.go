//go:build !amd64

package quant

// Off amd64 the dense step is dot4 alone.

const packed = false

func dot4n(rows, x []int64) (a0, a1, a2, a3 int64) { return dot4(rows, x) }
