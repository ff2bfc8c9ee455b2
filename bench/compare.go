package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict compares one end-to-end metric of a base run (a) and a new run (b).
// The new median may be worse than the base's by the metric's bound (or its
// absolute floor, for values near 0). Where the reps of either run spread
// wider than that (the distance between their quartiles, so that one odd rep
// does not decide), the pair is unresolved rather than ok or worse, unless
// every rep of one run beats every rep of the other.
func verdict(d e2eDef, a, b metric) (string, float64) {
	sign := 1.0
	if !d.lower {
		sign = -1
	}
	slack := math.Max(d.bound*math.Abs(a.Value), d.floor)
	worseBy := sign * (b.Value - a.Value)
	spread := math.Max(a.Q3-a.Q1, b.Q3-b.Q1)
	bWins := sign*(b.Max-a.Min) <= 0 && sign*(b.Min-a.Max) <= 0
	aWins := sign*(a.Max-b.Min) < 0 && sign*(a.Min-b.Max) < 0
	switch {
	case bWins:
		return "ok", slack
	case worseBy > slack && (spread <= slack || aWins):
		return "worse", slack
	case worseBy > slack || spread > slack:
		return "unresolved", slack
	}
	return "ok", slack
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// ratio with its base, the bound and the verdict, and returns 1 when any
// metric is worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readReport(pathA)
	b, errB := readReport(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareReports(a, b, pathA, stdout)
}

func compareReports(a, b *report, base string, w io.Writer) int {
	if a.Seed != b.Seed || a.Quick != b.Quick {
		fmt.Fprintf(w, "note: the runs differ in shape (seed %d vs %d, quick %v vs %v)\n", a.Seed, b.Seed, a.Quick, b.Quick)
	}
	if a.NoisyHost || b.NoisyHost {
		fmt.Fprintln(w, "note: a run was taken on a noisy host")
	}
	byName := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	worse, unresolved := 0, 0
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %22s %10s  %s\n", "workload", "metric", "A", "B", "B/A (base "+base+")", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Name]
		if rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			continue
		}
		for _, d := range e2eDefs {
			ma, okA := ra.EndToEnd[d.name]
			mb, okB := rb.EndToEnd[d.name]
			if !okA || !okB {
				continue
			}
			v, slack := verdict(d, ma, mb)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-20s %-18s %14.6g %14.6g %22.4f %10.4g  %s\n",
				ra.Name, d.name, ma.Value, mb.Value, ratio(mb.Value, ma.Value), slack, v)
		}
		if ra.SimDigest != rb.SimDigest {
			fmt.Fprintf(w, "%-20s sim_digest differs: %s vs %s\n", ra.Name, ra.SimDigest, rb.SimDigest)
		}
	}
	fmt.Fprintf(w, "%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}
