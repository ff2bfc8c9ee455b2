package obs

import (
	"fmt"
	"io"
	"net/http"
	"os"
)

// Exports names where one CLI run's telemetry goes. Empty fields export
// nothing.
type Exports struct {
	Trace      string // Chrome trace-event JSON file
	TraceJSONL string // trace events as JSON lines
	Metrics    string // Prometheus text file
	Flight     string // flight recording as JSON lines
	Listen     string // serve everything on this address after the run
}

// Any reports whether any export was requested.
func (e Exports) Any() bool {
	return e.Trace != "" || e.TraceJSONL != "" || e.Metrics != "" || e.Flight != "" || e.Listen != ""
}

// Session is one CLI run's telemetry: registry and tracer when any export was
// requested, flight recorder when a file or the HTTP endpoint will read it.
// All three are nil otherwise, which every consumer treats as "off".
type Session struct {
	Reg    *Registry
	Tracer *Tracer
	Flight *FlightRecorder
	ex     Exports
}

// NewSession provisions what ex needs, with a DefaultTraceCapacity trace
// ring.
func NewSession(ex Exports) *Session {
	s := &Session{ex: ex}
	if ex.Any() {
		s.Reg = NewRegistry()
		s.Tracer = NewTracer(0)
	}
	if ex.Flight != "" || ex.Listen != "" {
		s.Flight = NewFlightRecorder(0)
	}
	return s
}

// Scope is the session's scope: the no-op scope when nothing is exported.
func (s *Session) Scope() Scope { return New(s.Reg, s.Tracer) }

// Finish writes the requested files, warns on stderr if the trace ring
// wrapped (the export then lacks its oldest events; a trace_ring_overflow
// event marks the spot), and with Listen set serves the HTTP endpoints until
// the process is killed. prog prefixes the messages.
func (s *Session) Finish(prog string, stderr io.Writer) error {
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{s.ex.Trace, s.Tracer.WriteChromeTrace},
		{s.ex.TraceJSONL, s.Tracer.WriteJSONL},
		{s.ex.Metrics, s.Reg.WritePrometheus},
		{s.ex.Flight, s.Flight.WriteJSONL},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.write); err != nil {
			return err
		}
	}
	if n := s.Tracer.Evicted(); n > 0 {
		fmt.Fprintf(stderr, "%s: trace ring overflowed, %d oldest events evicted (it keeps the newest %d)\n", prog, n, s.Tracer.Cap())
	}
	if s.ex.Listen != "" {
		fmt.Fprintf(stderr, "serving telemetry on %s (/metrics, /debug/trace, /debug/flight) — ctrl-c to stop\n", s.ex.Listen)
		return http.ListenAndServe(s.ex.Listen, NewHTTPHandler(s.Reg, s.Tracer, s.Flight))
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
