package codegen_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/lb"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
	"github.com/liteflow-sim/liteflow/internal/sched"
)

type zooNet struct {
	name string
	net  *nn.Network
}

// zooNets returns every evaluated architecture (paper §5.1), plus a
// one-layer net (the degenerate call chain).
func zooNets() []zooNet {
	return []zooNet{
		{"aurora", cc.NewAuroraNet(1)},
		{"aurora_alpha", cc.NewAuroraAlphaNet(2)},
		{"mocc", cc.NewMOCCNet(3)},
		{"ffnn", sched.NewFFNN(4)},
		{"lbmlp", lb.NewMLP(2, 5)},
		{"single", nn.New([]int{3, 2}, []nn.Activation{nn.Sigmoid}, 6)},
	}
}

// zooModules builds every zoo net at two output scales.
func zooModules(t *testing.T) []*codegen.Module {
	t.Helper()
	var mods []*codegen.Module
	for _, n := range zooNets() {
		for _, c := range []int64{10, 1000} {
			cfg := quant.DefaultConfig()
			cfg.OutputScale = c
			mod, err := codegen.Build(quant.Quantize(n.net, cfg), fmt.Sprintf("%s_c%d", n.name, c))
			if err != nil {
				t.Fatalf("%s C=%d: %v", n.name, c, err)
			}
			mods = append(mods, mod)
		}
	}
	return mods
}

// typeCheck compiles files as one package snapshot — the analog of a .ko
// linking against the LiteFlow core module's exported symbols.
func typeCheck(files map[string]string) error {
	fset := token.NewFileSet()
	var parsed []*ast.File
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", name, err)
		}
		parsed = append(parsed, f)
	}
	conf := types.Config{Importer: importer.Default()}
	_, err := conf.Check("snapshot", fset, parsed, nil)
	return err
}

// TestGeneratedModuleTypeChecks: for every zoo model the units together with
// the runtime support source form a type-correct package, and so does the
// assembled single file.
func TestGeneratedModuleTypeChecks(t *testing.T) {
	for _, mod := range zooModules(t) {
		if err := typeCheck(map[string]string{
			"runtime.go": codegen.RuntimeSource(), "activation.go": mod.Activation, "model.go": mod.Model,
		}); err != nil {
			t.Errorf("%s: units fail type check: %v", mod.Name, err)
		}
		src := mod.Source()
		if err := codegen.Validate(src); err != nil {
			t.Errorf("%s: assembled source does not parse: %v", mod.Name, err)
		}
		if err := typeCheck(map[string]string{"runtime.go": codegen.RuntimeSource(), "snapshot.go": src}); err != nil {
			t.Errorf("%s: assembled source fails type check: %v", mod.Name, err)
		}
	}
}

// zooInputs draws n seeded input vectors at the program's input scale. Every
// fourth one is 64× out of the unit range, which drives first-layer
// accumulators far past the LUT's [tblMin, tblMax].
func zooInputs(p *quant.Program, n int, seed int64) [][]int64 {
	r := rand.New(rand.NewSource(seed))
	ins := make([][]int64, n)
	for k := range ins {
		scale := 1.0
		if k%4 == 3 {
			scale = 64
		}
		in := make([]float64, p.InputSize())
		for i := range in {
			in[i] = (r.Float64()*2 - 1) * scale
		}
		ins[k] = p.QuantizeInput(in, nil)
	}
	return ins
}

// saturates reports whether in pushes some first-layer accumulator of p
// beyond the layer's table range.
func saturates(p *quant.Program, in []int64) bool {
	l := p.Layers[0]
	tbl, tblMin, tblMax := l.TableData()
	if tbl == nil {
		return false
	}
	for i := 0; i < l.Out; i++ {
		acc := l.B[i]
		for j, x := range in {
			acc += l.Weight(i, j) * x
		}
		if acc < tblMin || acc > tblMax {
			return true
		}
	}
	return false
}

const zooMain = `package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

%s)

var models = []struct {
	in, out int
	infer   func(input, output []int64)
}{
%s}

// One request per stdin line, "<model> <input>...", one output vector per
// stdout line.
func main() {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(nil, 1<<20)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		k, _ := strconv.Atoi(f[0])
		m := models[k]
		in, out := make([]int64, m.in), make([]int64, m.out)
		for i := range in {
			in[i], _ = strconv.ParseInt(f[1+i], 10, 64)
		}
		m.infer(in, out)
		fmt.Fprintln(w, out)
	}
}
`

// TestGeneratedSourceMatchesProgram is the execute-both check of the
// generator (ROADMAP item 4b): the runtime support source, the units of
// every zoo module and a small main are written into a temporary Go module,
// compiled and run once by the go tool, and every output is compared bit for
// bit with quant.Program.Infer — on 256 seeded inputs per model, a quarter
// of them saturating the activation tables, and on one linear output whose
// rescale passes 2⁶³ if formed as acc·C.
func TestGeneratedSourceMatchesProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the generated modules; skipped under -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	mods := zooModules(t)
	inputs := make([][][]int64, len(mods))
	for k, mod := range mods {
		inputs[k] = zooInputs(mod.Program, 256, int64(k)+1)
	}
	// A 1→1 linear net of weight 1 at C = 2²⁴−1 on input 40,000: its
	// accumulator times C passes 2⁶³, and the output is the exact 40,000·C.
	wide := nn.New([]int{1, 1}, []nn.Activation{nn.Linear}, 1)
	wide.Layers[0].W[0][0], wide.Layers[0].B[0] = 1, 0
	wideMod, err := codegen.Build(quant.Quantize(wide, quant.Config{OutputScale: quant.MaxOutputScale - 1}), "wide")
	if err != nil {
		t.Fatal(err)
	}
	wideIn := wideMod.Program.QuantizeInput([]float64{40_000}, nil)
	wideOut := make([]int64, 1)
	if wideMod.Program.Infer(wideIn, wideOut); wideOut[0] != 671_088_600_000 {
		t.Fatalf("Program.Infer of the wide net = %d, want 671088600000", wideOut[0])
	}
	mods, inputs = append(mods, wideMod), append(inputs, [][]int64{wideIn})

	var imports, table, stdin, want strings.Builder
	var lineModel []string
	saturated := 0
	for k, mod := range mods {
		pkg := fmt.Sprintf("m%d", k)
		write(pkg+"/runtime.go", codegen.RuntimeSource())
		write(pkg+"/activation.go", mod.Activation)
		write(pkg+"/model.go", mod.Model)
		fmt.Fprintf(&imports, "\t%s \"zoo/%s\"\n", pkg, pkg)
		p := mod.Program
		fmt.Fprintf(&table, "\t{%d, %d, %s.Infer_%s},\n", p.InputSize(), p.OutputSize(), pkg, mod.Name)

		out := make([]int64, p.OutputSize())
		for i, in := range inputs[k] {
			if saturates(p, in) {
				saturated++
			}
			fmt.Fprintf(&stdin, "%d %s\n", k, strings.Trim(fmt.Sprint(in), "[]"))
			p.Infer(in, out)
			fmt.Fprintln(&want, out)
			lineModel = append(lineModel, fmt.Sprintf("%s input %d", mod.Name, i))
		}
	}
	if saturated == 0 {
		t.Fatal("no input saturates an activation table; the test lost its edge cases")
	}
	write("go.mod", "module zoo\n\ngo 1.22\n")
	write("main.go", fmt.Sprintf(zooMain, imports.String(), table.String()))

	cmd := exec.Command(goTool, "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GO111MODULE=on")
	cmd.Stdin = strings.NewReader(stdin.String())
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run of the generated modules: %v\n%s", err, stderr.String())
	}

	got, exp := strings.Split(stdout.String(), "\n"), strings.Split(want.String(), "\n")
	if len(got) != len(exp) {
		t.Fatalf("generated modules printed %d lines, want %d", len(got), len(exp))
	}
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("%s: generated module = %s, Program.Infer = %s", lineModel[i], got[i], exp[i])
		}
	}
}
