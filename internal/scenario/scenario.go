// Package scenario loads and runs declarative workload scenarios: a JSON
// spec names an actor mix (web / video / rpc / bulk session state machines
// from package actor), an arrival process with optional diurnal modulation,
// disruption events (flash crowds, incast bursts), a fabric profile
// (data-center, WAN-RTT, wireless-loss) and an acceptance envelope. Run
// builds the fabric, populates it with sessions, plays the scenario on the
// partitioned engine and renders a deterministic Report, pinned by digest, so
// every named scenario doubles as a regression test (DESIGN.md §4j).
package scenario

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"sort"
	"strings"

	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// Spec is one declarative scenario.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Fabric selects the topology profile.
	Fabric FabricSpec `json:"fabric"`
	// CC picks the congestion controller for every flow: dctcp | cubic |
	// bbr. Empty defaults to cubic on the wan profile, dctcp elsewhere.
	CC string `json:"cc,omitempty"`
	// DurationMs is the simulated run length.
	DurationMs float64 `json:"durationMs"`
	// Seed drives every random draw of the scenario (session seeds, arrival
	// times, server placement, loss processes).
	Seed uint64 `json:"seed"`
	// Actors is the session mix; groups populate in order.
	Actors []ActorGroup `json:"actors"`
	// Arrival spreads session launches over the start of the run.
	Arrival ArrivalSpec `json:"arrival"`
	// Events injects disruptions mid-run.
	Events []EventSpec `json:"events,omitempty"`
	// Churn layers a short-lived background-mice population over the
	// persistent sessions (workload.GenerateChurnAt keeps its flow IDs
	// clear of the actor block).
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Envelope is the acceptance contract checked at natural scale.
	Envelope Envelope `json:"envelope"`
}

// FabricSpec selects and sizes the topology.
type FabricSpec struct {
	// Profile: dc (10G/40G spine-leaf, 5µs hops, ECN) | wan (50µs access,
	// 2ms fabric hops, deep buffers, no ECN) | wireless (dc plus i.i.d.
	// loss on every host access link).
	Profile      string `json:"profile"`
	HostsPerLeaf int    `json:"hostsPerLeaf"`
	// LossRate is the per-packet access-link loss probability (wireless).
	LossRate float64 `json:"lossRate,omitempty"`
}

// ActorGroup instantiates Count sessions of one class.
type ActorGroup struct {
	Class string `json:"class"` // web | video | rpc | bulk
	Count int    `json:"count"`
	// ThinkMs is the mean think/inter-call time (web, rpc; optional bulk
	// pause). Defaults: web 5, rpc 10.
	ThinkMs float64 `json:"thinkMs,omitempty"`
	// ReqBytes is the request size (default 300, must fit one MSS).
	ReqBytes int64 `json:"reqBytes,omitempty"`
	// RespDist sizes web responses: websearch (DCTCP web-search CDF,
	// default) | fixed (every response RespBytes).
	RespDist string `json:"respDist,omitempty"`
	// RespBytes is the response size for rpc/bulk and web with respDist
	// fixed.
	RespBytes int64 `json:"respBytes,omitempty"`
	// Fanout is the rpc server count (default 2).
	Fanout int `json:"fanout,omitempty"`
	// ChunkMs and LadderKbps configure video (defaults 100 ms and
	// 300..6000 kbps).
	ChunkMs    float64 `json:"chunkMs,omitempty"`
	LadderKbps []int64 `json:"ladderKbps,omitempty"`
}

// ArrivalSpec spreads session launches over a ramp window.
type ArrivalSpec struct {
	// Process: uniform (evenly spaced) | poisson (i.i.d. positions, the
	// arrival-order statistics of a Poisson process).
	Process string  `json:"process"`
	RampMs  float64 `json:"rampMs"`
	// Diurnal modulates arrival density over the ramp.
	Diurnal *DiurnalSpec `json:"diurnal,omitempty"`
}

// DiurnalSpec is a sinusoidal day/night arrival-density cycle: density rises
// from MinFrac (trough, at the window start) to 1 (peak) with the given
// period.
type DiurnalSpec struct {
	PeriodMs float64 `json:"periodMs"`
	MinFrac  float64 `json:"minFrac"`
}

// EventSpec is one mid-run disruption.
type EventSpec struct {
	// Kind: flash-crowd (launch Sessions extra sessions of Class within
	// SpanMs of AtMs) | incast-burst (Fire every rpc session at AtMs; busy
	// sessions count an IncastSkip).
	Kind     string  `json:"kind"`
	AtMs     float64 `json:"atMs"`
	SpanMs   float64 `json:"spanMs,omitempty"`
	Class    string  `json:"class,omitempty"`
	Sessions int     `json:"sessions,omitempty"`
}

// ChurnSpec layers short-lived background flows: Poisson opens at RatePerSec,
// exponential lifetimes with mean MeanLifeMs, each flow a one-shot transfer
// sized by its query count. FinFrac is carried through for the flow-cache
// experiments; at the tcp level every mouse simply completes.
type ChurnSpec struct {
	Flows      int     `json:"flows"`
	RatePerSec float64 `json:"ratePerSec"`
	MeanLifeMs float64 `json:"meanLifeMs"`
	FinFrac    float64 `json:"finFrac"`
}

// Envelope bounds a scenario's report at natural scale. Zero fields are
// unchecked.
type Envelope struct {
	// MinGoodputMbps bounds aggregate response goodput (BytesDown over the
	// run duration).
	MinGoodputMbps float64 `json:"minGoodputMbps,omitempty"`
	// MaxP50LatMs / MaxP99LatMs bound the response-latency (FCT analog)
	// quantiles across all classes.
	MaxP50LatMs float64 `json:"maxP50LatMs,omitempty"`
	MaxP99LatMs float64 `json:"maxP99LatMs,omitempty"`
	// MinResponses bounds completed request cycles.
	MinResponses int64 `json:"minResponses,omitempty"`
	// MaxRebufferFrac bounds video rebuffers per delivered chunk.
	MaxRebufferFrac float64 `json:"maxRebufferFrac,omitempty"`
	// MinAvgBitrateKbps bounds the mean delivered video bitrate.
	MinAvgBitrateKbps int64 `json:"minAvgBitrateKbps,omitempty"`
}

// Parse decodes and validates one scenario spec. Unknown fields are errors,
// so typos in a corpus file fail loudly instead of silently relaxing an
// envelope.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return &s, nil
}

// maxMs bounds every millisecond field (one year) and maxRespBytes every
// response size, so Run's conversions to nanoseconds and byte counts cannot
// overflow into negative times and sizes.
const (
	maxMs        = 365 * 24 * 3600 * 1e3
	maxRespBytes = 1 << 40
)

// Validate checks the spec against the constraints Run assumes.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("missing name")
	}
	switch s.Fabric.Profile {
	case "dc", "wan":
		if s.Fabric.LossRate != 0 {
			return fmt.Errorf("lossRate needs the wireless profile")
		}
	case "wireless":
		if s.Fabric.LossRate <= 0 || s.Fabric.LossRate >= 1 {
			return fmt.Errorf("wireless profile needs lossRate in (0,1)")
		}
	default:
		return fmt.Errorf("unknown fabric profile %q (want dc|wan|wireless)", s.Fabric.Profile)
	}
	if s.Fabric.HostsPerLeaf < 1 {
		return fmt.Errorf("hostsPerLeaf must be ≥ 1")
	}
	switch s.CC {
	case "", "dctcp", "cubic", "bbr":
	default:
		return fmt.Errorf("unknown cc %q (want dctcp|cubic|bbr)", s.CC)
	}
	if s.DurationMs <= 0 || s.DurationMs > maxMs {
		return fmt.Errorf("durationMs must be in (0, 1 year]")
	}
	if len(s.Actors) == 0 {
		return fmt.Errorf("need at least one actor group")
	}
	hosts := 2 * s.Fabric.HostsPerLeaf
	for i := range s.Actors {
		g := &s.Actors[i]
		if g.Count < 1 {
			return fmt.Errorf("actors[%d]: count must be ≥ 1", i)
		}
		if g.ReqBytes < 0 || g.ReqBytes > netsim.MSS {
			return fmt.Errorf("actors[%d]: reqBytes must be in 0..MSS", i)
		}
		if g.RespBytes > maxRespBytes || g.ThinkMs > maxMs || g.ChunkMs > maxMs {
			return fmt.Errorf("actors[%d]: respBytes must be at most 1 TiB, thinkMs and chunkMs at most a year", i)
		}
		switch g.Class {
		case "web":
			switch g.RespDist {
			case "", "websearch":
			case "fixed":
				if g.RespBytes <= 0 {
					return fmt.Errorf("actors[%d]: respDist fixed needs respBytes", i)
				}
			default:
				return fmt.Errorf("actors[%d]: unknown respDist %q (want websearch|fixed)", i, g.RespDist)
			}
		case "video":
			if g.ChunkMs < 0 {
				return fmt.Errorf("actors[%d]: chunkMs must be ≥ 0", i)
			}
		case "rpc":
			if g.RespBytes <= 0 {
				return fmt.Errorf("actors[%d]: rpc needs respBytes", i)
			}
			if f := g.fanout(); f >= hosts {
				return fmt.Errorf("actors[%d]: fanout %d needs more than %d hosts", i, f, hosts)
			}
		case "bulk":
			if g.RespBytes <= 0 {
				return fmt.Errorf("actors[%d]: bulk needs respBytes", i)
			}
		default:
			return fmt.Errorf("actors[%d]: unknown class %q", i, g.Class)
		}
	}
	switch s.Arrival.Process {
	case "", "uniform", "poisson":
	default:
		return fmt.Errorf("unknown arrival process %q (want uniform|poisson)", s.Arrival.Process)
	}
	if s.Arrival.RampMs < 0 || s.Arrival.RampMs > s.DurationMs {
		return fmt.Errorf("rampMs must be in 0..durationMs")
	}
	if d := s.Arrival.Diurnal; d != nil {
		if d.PeriodMs <= 0 || d.MinFrac < 0 || d.MinFrac > 1 {
			return fmt.Errorf("diurnal needs periodMs > 0 and minFrac in [0,1]")
		}
	}
	for i, e := range s.Events {
		if e.AtMs < 0 || e.AtMs > s.DurationMs {
			return fmt.Errorf("events[%d]: atMs outside the run", i)
		}
		switch e.Kind {
		case "flash-crowd":
			if e.Sessions < 1 {
				return fmt.Errorf("events[%d]: flash-crowd needs sessions ≥ 1", i)
			}
			if e.SpanMs < 0 || e.SpanMs > maxMs {
				return fmt.Errorf("events[%d]: spanMs must be in 0..1 year", i)
			}
			found := false
			for j := range s.Actors {
				if s.Actors[j].Class == e.Class {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("events[%d]: flash-crowd class %q has no actor group to clone", i, e.Class)
			}
		case "incast-burst":
			found := false
			for j := range s.Actors {
				if s.Actors[j].Class == "rpc" {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("events[%d]: incast-burst needs an rpc actor group", i)
			}
		default:
			return fmt.Errorf("events[%d]: unknown kind %q (want flash-crowd|incast-burst)", i, e.Kind)
		}
	}
	if c := s.Churn; c != nil {
		if c.Flows < 1 || c.RatePerSec*maxMs/1e3 < 1 || c.MeanLifeMs < 1e-6 || c.MeanLifeMs > maxMs || c.FinFrac < 0 || c.FinFrac > 1 {
			return fmt.Errorf("churn needs flows ≥ 1, ratePerSec of one a year or more, meanLifeMs in [1 ns, 1 year], finFrac in [0,1]")
		}
	}
	return nil
}

// fanout returns the effective rpc fan-out width.
func (g *ActorGroup) fanout() int {
	if g.Fanout > 0 {
		return g.Fanout
	}
	return 2
}

// Sessions returns the natural-scale session count across all groups.
func (s *Spec) Sessions() int {
	n := 0
	for i := range s.Actors {
		n += s.Actors[i].Count
	}
	return n
}

// LoadCorpus parses every *.json scenario in fsys, sorted by name. Duplicate
// names are errors.
func LoadCorpus(fsys fs.FS) ([]*Spec, error) {
	files, err := fs.Glob(fsys, "*.json")
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	specs := make([]*Spec, 0, len(files))
	seen := map[string]string{}
	for _, f := range files {
		data, err := fs.ReadFile(fsys, f)
		if err != nil {
			return nil, err
		}
		sp, err := Parse(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if prev, dup := seen[sp.Name]; dup {
			return nil, fmt.Errorf("%s: scenario name %q already used by %s", f, sp.Name, prev)
		}
		seen[sp.Name] = f
		specs = append(specs, sp)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, nil
}
