package obs

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"strconv"
)

// WritePrometheus serializes the registry in Prometheus text exposition
// format (version 0.0.4). Output order is deterministic: families sorted by
// name, series sorted by rendered labels — byte-identical across same-seed
// runs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(f.help)
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, s := range f.sortedSeries() {
			switch f.kind {
			case kindCounter, kindGauge:
				writeSample(bw, f.name, "", s.labels, "", s.value(f.kind))
			case kindHistogram:
				writeHistogram(bw, f.name, s)
			}
		}
	}
	return bw.Flush()
}

// PrometheusText returns the exposition as a byte slice.
func (r *Registry) PrometheusText() []byte {
	var b bytes.Buffer
	r.WritePrometheus(&b)
	return b.Bytes()
}

// writeSample emits one `name{labels,extra} value` line. suffix is appended
// to the metric name (_bucket, _sum, _count); extra is an extra label pair
// already rendered (the le="…" of buckets).
func writeSample(bw *bufio.Writer, name, suffix, labels, extra string, v float64) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if labels != "" || extra != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		if labels != "" && extra != "" {
			bw.WriteByte(',')
		}
		bw.WriteString(extra)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatValue(v))
	bw.WriteByte('\n')
}

// writeHistogram emits the cumulative _bucket series plus _sum and _count.
func writeHistogram(bw *bufio.Writer, name string, s *series) {
	h := s.hist
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		writeSample(bw, name, "_bucket", s.labels, `le="`+formatValue(b)+`"`, float64(cum))
	}
	cum += h.counts[len(h.bounds)]
	writeSample(bw, name, "_bucket", s.labels, `le="+Inf"`, float64(cum))
	writeSample(bw, name, "_sum", s.labels, "", h.sum)
	writeSample(bw, name, "_count", s.labels, "", float64(cum))
}

// formatValue renders a float the way Prometheus clients do. Integral
// values print as integers (counters stay human-diffable instead of
// drifting into scientific notation past 1e6).
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
