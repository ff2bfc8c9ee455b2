//go:build !amd64

package nn

// Off amd64 the four-sample kernels are the Go ones.

func sumLanes(w, b []float64, x, dst []lanes) { sumLanesGo(w, b, x, dst) }

func tanhLanes(v []lanes, _ []uint8) { tanhLanesGo(v) }
