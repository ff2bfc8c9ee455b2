package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/liteflow-sim/liteflow/internal/scenario"
	"github.com/liteflow-sim/liteflow/scenarios"
)

// errEnvelope marks an acceptance-envelope violation under -scenario-check so
// main can exit non-zero without treating it as a harness failure.
type errEnvelope struct{ violations []string }

func (e errEnvelope) Error() string {
	return fmt.Sprintf("acceptance envelope violated (%d): %s",
		len(e.violations), strings.Join(e.violations, "; "))
}

// loadScenario resolves -scenario: an embedded corpus name, or a filesystem
// path when the argument looks like one (contains a separator or .json).
func loadScenario(arg string) (*scenario.Spec, error) {
	if strings.ContainsRune(arg, os.PathSeparator) || strings.HasSuffix(arg, ".json") {
		data, err := os.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		return scenario.Parse(data)
	}
	specs, err := scenario.LoadCorpus(scenarios.FS)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if s.Name == arg {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown scenario %q (corpus: %s)", arg, strings.Join(names, ", "))
}

// listScenarios prints the embedded corpus, one scenario per row.
func listScenarios(stdout io.Writer) error {
	specs, err := scenario.LoadCorpus(scenarios.FS)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-20s %8s %8s  %s\n", "name", "sessions", "dur(ms)", "description")
	for _, s := range specs {
		fmt.Fprintf(stdout, "%-20s %8d %8g  %s\n", s.Name, s.Sessions(), s.DurationMs, s.Description)
	}
	return nil
}

// runScenario executes one scenario through the harness and prints its
// report. With -scenario-check it returns errEnvelope on any violation (the
// CI acceptance-envelope job drives this path).
func runScenario(o options, stdout io.Writer) error {
	s, err := loadScenario(o.scenario)
	if err != nil {
		return err
	}
	if o.scenarioCheck && o.scenarioScale != 0 && o.scenarioScale != 1 {
		return fmt.Errorf("-scenario-check enforces the envelope, which is only defined at -scenario-scale 1 (got %g)", o.scenarioScale)
	}
	r, err := scenario.Run(s, scenario.RunOpts{Scale: o.scenarioScale})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, r.String())
	if o.scenarioCheck && len(r.Violations) > 0 {
		return errEnvelope{r.Violations}
	}
	return nil
}
