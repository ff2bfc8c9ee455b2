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
// and "biases" arrays to supply trained parameters instead.
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

func parseAct(s string) (nn.Activation, error) {
	switch s {
	case "linear":
		return nn.Linear, nil
	case "relu":
		return nn.ReLU, nil
	case "tanh":
		return nn.Tanh, nil
	case "sigmoid":
		return nn.Sigmoid, nil
	}
	return 0, fmt.Errorf("unknown activation %q", s)
}

func run(in io.Reader, out io.Writer, emitRuntime bool) error {
	var sp spec
	if err := json.NewDecoder(in).Decode(&sp); err != nil {
		return fmt.Errorf("parse spec: %w", err)
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
	if sp.Weights != nil {
		if len(sp.Weights) != len(net.Layers) {
			return fmt.Errorf("weights: got %d layers, want %d", len(sp.Weights), len(net.Layers))
		}
		for li, l := range net.Layers {
			for i := range l.W {
				copy(l.W[i], sp.Weights[li][i])
			}
			if sp.Biases != nil {
				copy(l.B, sp.Biases[li])
			}
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
