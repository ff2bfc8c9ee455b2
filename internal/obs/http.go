package obs

import (
	"io"
	"net/http"
)

// NewHTTPHandler returns an http.Handler exposing the registry at /metrics
// (Prometheus text format), the tracer at /debug/trace (Chrome trace JSON by
// default, JSON lines with ?format=jsonl) and the flight recording at
// /debug/flight (JSON lines). Nil arguments make the corresponding endpoints
// report 404. Component series are views over plain fields, so serve
// /metrics only after the components' run has returned; the tracer and the
// flight recording synchronize internally and may be served during it.
func NewHTTPHandler(reg *Registry, tr *Tracer, fr *FlightRecorder) http.Handler {
	// serve answers with write's bytes as ctype, or 404 when the exporter
	// behind write is absent.
	serve := func(w http.ResponseWriter, present bool, ctype string, write func(io.Writer) error) {
		if !present {
			http.NotFound(w, nil)
			return
		}
		w.Header().Set("Content-Type", ctype)
		write(w)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		serve(w, reg != nil, "text/plain; version=0.0.4; charset=utf-8", reg.WritePrometheus)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "jsonl" {
			serve(w, tr != nil, "application/x-ndjson", tr.WriteJSONL)
			return
		}
		serve(w, tr != nil, "application/json", tr.WriteChromeTrace)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		serve(w, fr != nil, "application/x-ndjson", fr.WriteJSONL)
	})
	return mux
}
