package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/codegen"
)

func TestRunGeneratesValidModule(t *testing.T) {
	spec := `{"name":"aurora","sizes":[30,32,16,1],
		"activations":["tanh","tanh","tanh"],"seed":1,"outputScale":1000}`
	var out strings.Builder
	if err := run(strings.NewReader(spec), &out, false); err != nil {
		t.Fatal(err)
	}
	src := out.String()
	// The two hidden tanh layers share one table, the output layer (scale
	// 1000) has its own; both are named by what determines their content.
	for _, want := range []string{"package snapshot", "Infer_aurora",
		"var lut_tanh_a16777216_o4096_n4096_r8 ", "var lut_tanh_a16777216_o1000_n4096_r8 "} {
		if !strings.Contains(src, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if n := strings.Count(src, "var lut_"); n != 2 {
		t.Errorf("output declares %d tables, want 2", n)
	}

	// One self-contained file: with the runtime support source it compiles
	// as a package.
	fset := token.NewFileSet()
	var files []*ast.File
	for name, s := range map[string]string{"snapshot.go": src, "runtime.go": codegen.RuntimeSource()} {
		f, err := parser.ParseFile(fset, name, s, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("snapshot", fset, files, nil); err != nil {
		t.Fatalf("lfgen output fails type check: %v", err)
	}
}

func TestRunWithRuntime(t *testing.T) {
	spec := `{"sizes":[2,2],"activations":["linear"],"seed":1}`
	var out strings.Builder
	if err := run(strings.NewReader(spec), &out, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "registerModel") {
		t.Error("runtime support source missing")
	}
	// Default name applies.
	if !strings.Contains(out.String(), "Infer_model") {
		t.Error("default model name missing")
	}
}

func TestRunWithExplicitWeights(t *testing.T) {
	spec := `{"name":"w","sizes":[2,1],"activations":["linear"],
		"weights":[[[1.0, -1.0]]],"biases":[[0.5]]}`
	var out strings.Builder
	if err := run(strings.NewReader(spec), &out, false); err != nil {
		t.Fatal(err)
	}
	// Weight 1.0 at the default scale 4096 must appear inlined.
	if !strings.Contains(out.String(), "input[0]*4096") {
		t.Error("explicit weight not inlined")
	}
}

// badSpecs are specs run must reject with an error, not a panic or a module.
var badSpecs = []string{
	`not json`,
	`{"sizes":[2,1],"activations":["nope"]}`,
	`{"sizes":[2,1],"activations":["linear"],"weights":[[[1]],[[2]]]}`,
	`{"sizes":[2,3],"activations":["linear"],"weights":[[[1,1]]]}`,                                 // fewer rows than outputs
	`{"sizes":[2,1],"activations":["linear"],"weights":[[[1]]]}`,                                   // a short row
	`{"sizes":[2,1,1],"activations":["linear","linear"],"weights":[[[1,1]],[[1]]],"biases":[[0]]}`, // fewer bias layers
	`{"sizes":[2,1],"activations":["linear"],"biases":[[0,0]]}`,                                    // a long bias row
	`{"sizes":[2],"activations":[]}`,
	`{"sizes":[],"activations":[]}`,
	`{"sizes":[2,-1],"activations":["linear"]}`,
	`{"sizes":[2,0],"activations":["linear"]}`,
	`{"sizes":[2,1],"activations":["linear","linear"]}`,
	`{"sizes":[2,1,1],"activations":["linear"]}`,
	`{"sizes":[65537,1],"activations":["linear"]}`,
	`{"sizes":[300,300],"activations":["linear"]}`, // more than maxWeights weights
	`{"sizes":[2,1],"activations":["linear"],"outputScale":1000000000000000}`,
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, c := range badSpecs {
		var out strings.Builder
		if err := run(strings.NewReader(c), &out, false); err == nil {
			t.Errorf("spec %q must be rejected", c)
		}
	}
}

// FuzzLfgenSpec: whatever the bytes, run returns an error or writes a module
// that parses as Go.
func FuzzLfgenSpec(f *testing.F) {
	f.Add(`{"name":"aurora","sizes":[30,32,16,1],"activations":["tanh","tanh","tanh"],"seed":1,"outputScale":1000}`)
	f.Add(`{"name":"w","sizes":[2,1],"activations":["linear"],"weights":[[[1.0, -1.0]]],"biases":[[0.5]]}`)
	f.Add(`{"sizes":[3,2,1],"activations":["relu","sigmoid"],"biases":[[1,2],[3]]}`)
	for _, c := range badSpecs {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		var out strings.Builder
		if err := run(strings.NewReader(spec), &out, false); err != nil {
			return
		}
		if err := codegen.Validate(out.String()); err != nil {
			t.Fatalf("accepted spec %q gave a module that does not parse: %v", spec, err)
		}
	})
}
