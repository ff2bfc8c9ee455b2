package scenario

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/scenarios"
)

// corpus loads the embedded scenario library once per test binary.
func corpus(t *testing.T) []*Spec {
	t.Helper()
	specs, err := LoadCorpus(scenarios.FS)
	if err != nil {
		t.Fatalf("LoadCorpus: %v", err)
	}
	return specs
}

func byName(t *testing.T, specs []*Spec, name string) *Spec {
	t.Helper()
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("scenario %q not in corpus", name)
	return nil
}

func TestCorpusLoads(t *testing.T) {
	specs := corpus(t)
	if len(specs) < 11 {
		t.Fatalf("corpus has %d scenarios, want >= 11", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Description == "" {
			t.Errorf("scenario %q has no description", s.Name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("scenario %q: %v", s.Name, err)
		}
	}
	for _, want := range []string{"web-baseline", "rpc-incast", "mega-web-1m"} {
		if !seen[want] {
			t.Errorf("corpus missing %q", want)
		}
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","bogusField":1}`))
	if err == nil || !strings.Contains(err.Error(), "bogusField") {
		t.Fatalf("Parse with unknown field: err = %v, want mention of bogusField", err)
	}
}

// TestParseRejectsOverflowingDuration: a duration past a year of virtual
// time wrapped negative in nanoseconds, so a flash crowd inside it was
// scheduled in the past and Run panicked.
func TestParseRejectsOverflowingDuration(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","fabric":{"profile":"dc","hostsPerLeaf":2},"durationMs":1e300,
		"actors":[{"class":"web","count":1}],"events":[{"kind":"flash-crowd","atMs":1e299,"class":"web","sessions":1}]}`))
	if err == nil || !strings.Contains(err.Error(), "durationMs") {
		t.Fatalf("Parse with durationMs 1e300: err = %v, want a durationMs rejection", err)
	}
}

// TestScenarioEnvelopes runs every small scenario at natural scale on the
// serial engine and requires a clean acceptance envelope. This is the same
// check CI's scenario job applies through lfsim scenario -check.
func TestScenarioEnvelopes(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario envelope sweep is a long test")
	}
	for _, s := range corpus(t) {
		if s.Name == "mega-web-1m" {
			continue // covered by TestMegaWebMillionFlows
		}
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel() // every run builds a private fabric and engine
			r, err := Run(s, RunOpts{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !r.EnvelopeChecked {
				t.Fatalf("envelope not checked at natural scale")
			}
			if len(r.Violations) != 0 {
				t.Fatalf("envelope violations:\n%s", strings.Join(r.Violations, "\n"))
			}
			if r.Total.Responses == 0 {
				t.Fatalf("scenario completed zero responses")
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// TestScenarioCorpusMatchesPinnedDigests pins the §4j contract for the
// scenario harness itself: every corpus scenario reproduces the committed
// digest of its report. Reduced scale keeps the corpus tractable. The digests
// are amd64 bytes: elsewhere the compiler may fuse multiply-adds, which moves
// float results in the last place.
func TestScenarioCorpusMatchesPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("windowed corpus golden run is a long test")
	}
	const golden = "testdata/windowed_corpus.golden"
	pinned := map[string]string{} // scenario name → its committed line
	if !*update {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			name, _, _ := strings.Cut(line, " ")
			pinned[name] = line
		}
	}
	specs := corpus(t)
	lines := make([]string, len(specs))
	for i, s := range specs {
		i, s := i, s
		scale := 0.5
		if s.Name == "mega-web-1m" {
			scale = 0.002
		}
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel() // every run builds a private fabric and engine
			r, err := Run(s, RunOpts{Scale: scale})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			h := fnv.New64a()
			h.Write([]byte(r.String()))
			lines[i] = fmt.Sprintf("%s scale=%g responses=%d report=%016x", s.Name, scale, r.Total.Responses, h.Sum64())
			if !*update && runtime.GOARCH == "amd64" && lines[i] != pinned[s.Name] {
				t.Errorf("windowed report moved (-update regenerates after an intended change):\n got %s\nwant %s\n%s",
					lines[i], pinned[s.Name], r)
			}
		})
	}
	if *update {
		t.Cleanup(func() { // after the parallel subtests
			if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMegaWebMillionFlows is the scale smoke: >= 1M concurrent tcp flows
// driven by persistent sessions on one fabric, envelope enforced.
func TestMegaWebMillionFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-flow scale smoke is a long test")
	}
	s := byName(t, corpus(t), "mega-web-1m")
	r, err := Run(s, RunOpts{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Flows < 1_000_000 {
		t.Fatalf("scale smoke ran %d concurrent flows, want >= 1,000,000", r.Flows)
	}
	if !r.EnvelopeChecked || len(r.Violations) != 0 {
		t.Fatalf("envelope checked=%v violations=%v", r.EnvelopeChecked, r.Violations)
	}
	t.Logf("mega-web-1m: %d flows, %d responses, p99 %.3f ms",
		r.Flows, r.Total.Responses, r.Total.P99Ms)
}
