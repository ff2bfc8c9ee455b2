package scenario

import (
	"io/fs"
	"testing"

	"github.com/liteflow-sim/liteflow/scenarios"
)

// fuzzShrink makes a valid spec small enough to play inside a fuzz
// iteration: its clock (duration, ramp, diurnal period, event times) scaled
// down to at most 4 ms, its fabric to at most 4 hosts per leaf, one session
// per actor group and flash crowd and at most 8 churn mice, so every corpus
// scenario and whatever the fuzzer grows from it can run. It is false when
// the shrunk spec no longer validates or would still be slow: more than six
// actor groups and events, or a video chunk or think time so short that a
// millisecond holds thousands.
func fuzzShrink(s *Spec) bool {
	if f := 4 / s.DurationMs; f < 1 {
		s.DurationMs *= f
		s.Arrival.RampMs *= f
		if d := s.Arrival.Diurnal; d != nil {
			d.PeriodMs *= f
		}
		for i := range s.Events {
			s.Events[i].AtMs *= f
			s.Events[i].SpanMs *= f
		}
	}
	if s.Fabric.HostsPerLeaf > 4 {
		s.Fabric.HostsPerLeaf = 4
	}
	for i := range s.Actors {
		s.Actors[i].Count = min(s.Actors[i].Count, 1)
	}
	for i := range s.Events {
		s.Events[i].Sessions = min(s.Events[i].Sessions, 1)
	}
	if s.Churn != nil {
		s.Churn.Flows = min(s.Churn.Flows, 8)
	}
	if s.Validate() != nil || len(s.Actors)+len(s.Events) > 6 {
		return false
	}
	for _, g := range s.Actors {
		if (g.ChunkMs > 0 && g.ChunkMs < 0.1) || (g.ThinkMs > 0 && g.ThinkMs < 0.01) || len(g.LadderKbps) > 16 {
			return false
		}
	}
	return true
}

// FuzzScenarioParse feeds arbitrary bytes to the scenario parser: Parse (and
// the Validate it ends in) must return an error rather than panic, and a spec
// it accepts, once fuzzShrink has made it small, must play through Run at a
// small scale without panicking. The seed corpus is the embedded scenario
// library plus one spec that exercises every optional block.
func FuzzScenarioParse(f *testing.F) {
	files, err := fs.Glob(scenarios.FS, "*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, name := range files {
		data, err := fs.ReadFile(scenarios.FS, name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"tiny","fabric":{"profile":"wireless","hostsPerLeaf":2,"lossRate":0.01},
		"durationMs":3,"seed":1,"actors":[{"class":"web","count":2},{"class":"rpc","count":1,"respBytes":3000},
		{"class":"video","count":1,"chunkMs":1}],"arrival":{"process":"poisson","rampMs":1,
		"diurnal":{"periodMs":1,"minFrac":0.2}},"events":[{"kind":"incast-burst","atMs":2},
		{"kind":"flash-crowd","atMs":1,"class":"web","sessions":3,"spanMs":1}],
		"churn":{"flows":4,"ratePerSec":2000,"meanLifeMs":1,"finFrac":0.5}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil || !fuzzShrink(s) {
			return
		}
		if _, err := Run(s, RunOpts{Scale: 0.5}); err != nil {
			t.Fatalf("Run rejected a spec that validates: %v", err)
		}
	})
}
