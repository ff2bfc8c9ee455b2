//go:build !amd64

package nn

// Off amd64 the packed kernels are the Go ones.

const avx = false

func sumLanes(w, b []float64, x, dst []lanes) { sumLanesGo(w, b, x, dst) }

func tanhLanes(v []lanes, _ []uint32) { tanhLanesGo(v) }

func backRows4(x, prev, w, gw []float64, d0, d1, d2, d3 float64) {
	backRows4Go(x, prev, w, gw, d0, d1, d2, d3)
}

func adamStep(p, g, m, v []float64, c *adamCoefs) { adamStepGo(p, g, m, v, c) }
