//go:build !amd64

package quant

// Off amd64 the dense step is dot4 and the row loop alone.

const packed = false

func denseAVX2(w, b, x, dst []int64) { panic("quant: denseAVX2 off amd64") }
