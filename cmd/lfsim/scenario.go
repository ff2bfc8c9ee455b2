package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/liteflow-sim/liteflow/internal/scenario"
	"github.com/liteflow-sim/liteflow/scenarios"
)

// parseScenario reads lfsim scenario [-check] [-scale S] [NAME|PATH]. With
// no name the command lists the corpus; with one it runs that scenario and
// prints its report, and with -check a violated envelope is an error (the CI
// acceptance-envelope job drives this path).
func parseScenario(fs *flag.FlagSet, args []string) (command, error) {
	check := fs.Bool("check", false, "exit 1 if the run violates the scenario's acceptance envelope (the one argument, NAME|PATH, names the scenario; none lists the corpus)")
	scale := fs.Float64("scale", 1, "scale the session population (envelopes only apply at 1)")
	if err := parseArgs(fs, args, 1); err != nil {
		return nil, err
	}
	switch {
	case fs.NArg() == 0 && fs.NFlag() > 0:
		fmt.Fprintln(fs.Output(), "-check and -scale apply to a run: name a scenario")
		return nil, errUsage
	case fs.NArg() == 0:
		return listScenarios, nil
	case *scale < 0:
		return nil, fmt.Errorf("-scale %g: want 0 or more (0 and 1 are natural scale)", *scale)
	case *check && *scale != 0 && *scale != 1:
		return nil, fmt.Errorf("-check enforces the envelope, which is only defined at -scale 1 (got %g)", *scale)
	}
	name := fs.Arg(0)
	return func(stdout, _ io.Writer) error {
		s, err := loadScenario(name)
		if err != nil {
			return err
		}
		r, err := scenario.Run(s, scenario.RunOpts{Scale: *scale})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, r.String())
		if *check && len(r.Violations) > 0 {
			return fmt.Errorf("acceptance envelope violated (%d): %s", len(r.Violations), strings.Join(r.Violations, "; "))
		}
		return nil
	}, nil
}

// loadScenario resolves a scenario argument: an embedded corpus name, or a
// filesystem path when the argument looks like one (contains a separator or
// .json).
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
func listScenarios(stdout, _ io.Writer) error {
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
