// Command lfgen generates a kernel-snapshot source module from a neural
// network description — the analog of LiteFlow's snapshot generation
// pipeline (quantization + layer-wise code translation + compile check,
// paper §3.1), with the GCC/insmod step replaced by Go source emission and a
// parser/type validation.
//
// The network is described as JSON on stdin (or -in file):
//
//	{
//	  "name": "aurora",
//	  "sizes": [30, 32, 16, 1],
//	  "activations": ["tanh", "tanh", "tanh"],
//	  "seed": 1,
//	  "outputScale": 1000
//	}
//
// Weights are initialized deterministically from the seed; pass "weights"
// and "biases" arrays to supply trained parameters instead. A spec whose
// arrays do not match its sizes is rejected before anything is built.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

type spec struct {
	Name        string        `json:"name"`
	Sizes       []int         `json:"sizes"`
	Activations []string      `json:"activations"`
	Seed        int64         `json:"seed"`
	OutputScale int64         `json:"outputScale"`
	Weights     [][][]float64 `json:"weights"` // [layer][out][in], optional
	Biases      [][]float64   `json:"biases"`  // [layer][out], optional
}

// parseAct returns the activation whose String is s.
func parseAct(s string) (nn.Activation, error) {
	for a := nn.Linear; a <= nn.Sigmoid; a++ {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown activation %q", s)
}

// maxWeights bounds a spec's weight count, Σ sizes[i]·sizes[i+1] (Aurora
// has 1,488), and with it every layer width, so a spec cannot ask for more
// memory or generated source than a kernel snapshot needs.
const maxWeights = 1 << 16

// validate checks the spec's shape against its sizes: nn.New and the weight
// copy below assume it.
func (sp *spec) validate() error {
	if len(sp.Sizes) < 2 {
		return fmt.Errorf("sizes: got %d entries, want at least 2", len(sp.Sizes))
	}
	layers := len(sp.Sizes) - 1
	if len(sp.Activations) != layers {
		return fmt.Errorf("activations: got %d, want one per layer (%d)", len(sp.Activations), layers)
	}
	weights := 0
	for i, n := range sp.Sizes {
		if n < 1 || n > maxWeights {
			return fmt.Errorf("sizes[%d] = %d, want 1..%d", i, n, maxWeights)
		}
		if i > 0 {
			if weights += sp.Sizes[i-1] * n; weights > maxWeights {
				return fmt.Errorf("sizes: more than %d weights", maxWeights)
			}
		}
	}
	// 0 picks the default; quant.Quantize panics outside 1..MaxOutputScale.
	if sp.OutputScale < 0 || sp.OutputScale > quant.MaxOutputScale {
		return fmt.Errorf("outputScale %d: want 0 (the default, 1000) to %d", sp.OutputScale, quant.MaxOutputScale)
	}
	if sp.Weights != nil && len(sp.Weights) != layers {
		return fmt.Errorf("weights: got %d layers, want %d", len(sp.Weights), layers)
	}
	if sp.Biases != nil && len(sp.Biases) != layers {
		return fmt.Errorf("biases: got %d layers, want %d", len(sp.Biases), layers)
	}
	for li := 0; li < layers; li++ {
		in, out := sp.Sizes[li], sp.Sizes[li+1]
		if sp.Weights != nil {
			if len(sp.Weights[li]) != out {
				return fmt.Errorf("weights[%d]: got %d rows, want %d", li, len(sp.Weights[li]), out)
			}
			for i, row := range sp.Weights[li] {
				if len(row) != in {
					return fmt.Errorf("weights[%d][%d]: got %d values, want %d", li, i, len(row), in)
				}
			}
		}
		if sp.Biases != nil && len(sp.Biases[li]) != out {
			return fmt.Errorf("biases[%d]: got %d values, want %d", li, len(sp.Biases[li]), out)
		}
	}
	return nil
}

func run(in io.Reader, out io.Writer, emitRuntime bool) error {
	var sp spec
	if err := json.NewDecoder(in).Decode(&sp); err != nil {
		return fmt.Errorf("parse spec: %w", err)
	}
	if err := sp.validate(); err != nil {
		return err
	}
	if sp.Name == "" {
		sp.Name = "model"
	}
	acts := make([]nn.Activation, 0, len(sp.Activations))
	for _, a := range sp.Activations {
		act, err := parseAct(a)
		if err != nil {
			return err
		}
		acts = append(acts, act)
	}
	net := nn.New(sp.Sizes, acts, sp.Seed)
	for li, l := range net.Layers {
		if sp.Weights != nil {
			for i := range l.W {
				copy(l.W[i], sp.Weights[li][i])
			}
		}
		if sp.Biases != nil {
			copy(l.B, sp.Biases[li])
		}
	}
	qc := quant.DefaultConfig()
	if sp.OutputScale > 0 {
		qc.OutputScale = sp.OutputScale
	}
	mod, err := codegen.Build(quant.Quantize(net, qc), sp.Name)
	if err != nil {
		return err
	}
	if emitRuntime {
		fmt.Fprintln(out, codegen.RuntimeSource())
	}
	_, err = fmt.Fprint(out, mod.Source())
	return err
}

func main() {
	var (
		inPath  = flag.String("in", "", "spec file (default stdin)")
		outPath = flag.String("out", "", "output file (default stdout)")
		runtime = flag.Bool("runtime", false, "also emit the snapshot runtime support source")
	)
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := run(in, out, *runtime); err != nil {
		fmt.Fprintln(os.Stderr, "lfgen:", err)
		os.Exit(1)
	}
}
