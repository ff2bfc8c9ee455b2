package obs

// This file implements the window-comparison helper on top of the flight
// recorder's Delta primitive: CompareDeltas reduces the per-series deltas of
// a before/after window pair to one aggregate statistic over a caller-chosen
// subset of series. It is the building block a canary gate needs — "sum the
// query rates of this member's series before and after the install" —
// without the caller re-implementing window slicing, rate derivation, or
// series iteration order. Delta returns series in sorted-name order, so
// aggregates are byte-deterministic across same-seed runs.

// AggMode selects how CompareDeltas combines matching series.
type AggMode int

const (
	// AggSum adds the per-series window statistics — the natural reduction
	// for cumulative rates (total queries/s across a member's series).
	AggSum AggMode = iota
	// AggMean averages the per-series window statistics — the natural
	// reduction for level series (mean p99 estimate across members).
	AggMean
)

// DeltaStat is the aggregate of one window comparison: the combined Before
// and After statistics of every matching series, and how many series matched.
// N == 0 means no series had enough data in both windows — callers should
// treat the comparison as inconclusive rather than as a zero reading.
type DeltaStat struct {
	Before, After float64
	N             int
}

// CompareDeltas reduces deltas (one FlightRecorder.Delta result; a caller
// that puts several selectors to one window pair pays for one Delta) over the
// series accepted by sel (nil accepts every series) using the given
// aggregation mode. Cumulative series contribute rates per second, level
// series contribute window means — mixing kinds under one selector is legal
// but rarely meaningful, so selectors usually also test
// SeriesDelta.Cumulative. No deltas, as from the nil recorder, give the zero
// DeltaStat.
func CompareDeltas(deltas []SeriesDelta, mode AggMode, sel func(SeriesDelta) bool) DeltaStat {
	var out DeltaStat
	for _, d := range deltas {
		if sel != nil && !sel(d) {
			continue
		}
		out.Before += d.Before
		out.After += d.After
		out.N++
	}
	if mode == AggMean && out.N > 0 {
		out.Before /= float64(out.N)
		out.After /= float64(out.N)
	}
	return out
}
