package codegen

import (
	"errors"
	"fmt"
	"go/scanner"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

func auroraProgram(t *testing.T) (*nn.Network, *quant.Program) {
	t.Helper()
	net := nn.New([]int{10, 8, 4, 1}, []nn.Activation{nn.Tanh, nn.ReLU, nn.Linear}, 17)
	return net, quant.Quantize(net, quant.DefaultConfig())
}

func TestGenerateProducesValidGo(t *testing.T) {
	_, p := auroraProgram(t)
	mod, err := Build(p, "aurora")
	if err != nil {
		t.Fatal(err)
	}
	src := mod.Source()
	for name, text := range map[string]string{"activation": mod.Activation, "model": mod.Model, "source": src} {
		if err := Validate(text); err != nil {
			t.Fatalf("%s does not parse: %v\n%s", name, err, text)
		}
	}
	for _, want := range []string{
		"func fc_0_comp", "func fc_1_comp", "func fc_2_comp",
		"func Infer_aurora", "var lut_tanh_", "func rescale", "registerModel(\"aurora\"",
		"DO NOT EDIT",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	if strings.Count(src, "package snapshot") != 1 {
		t.Error("assembled source must have exactly one package clause")
	}
	if strings.Contains(mod.Model, "lut_") || strings.Contains(mod.Activation, "fc_0_comp") {
		t.Error("tables belong to the activation unit and layer functions to the model unit")
	}
}

// TestActivationUnitSharedByContent: layers with one ActID share one helper,
// and retuned weights reuse the memoised unit text instead of regenerating it.
func TestActivationUnitSharedByContent(t *testing.T) {
	cfg := quant.DefaultConfig()
	acts := []nn.Activation{nn.Tanh, nn.Tanh, nn.Linear}
	a, err := Build(quant.Quantize(nn.New([]int{30, 32, 16, 1}, acts, 1), cfg), "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(quant.Quantize(nn.New([]int{30, 32, 16, 1}, acts, 2), cfg), "b")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(a.Activation, "var lut_"); n != 1 {
		t.Errorf("two tanh layers at one scale declare %d tables, want 1 shared", n)
	}
	if unsafe.StringData(a.Activation) != unsafe.StringData(b.Activation) {
		t.Error("modules of one architecture and config must share the memoised activation unit")
	}
	if a.Model == b.Model {
		t.Error("model units of differently seeded nets must differ")
	}
	if frameOf(a.Model) != frameOf(b.Model) {
		t.Error("retuned snapshots of one architecture must share one model frame, whatever their names")
	}
}

func frameOf(model string) string { return string(appendFrame(nil, model)) }

// TestModelUnitMatchesListing2 pins the per-install emitter against a
// fmt-based rendering of the Listing 2 row form, byte for byte.
func TestModelUnitMatchesListing2(t *testing.T) {
	_, p := auroraProgram(t)
	model, err := Generate(p, "aurora")
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range p.Layers {
		var want strings.Builder
		fmt.Fprintf(&want, "// fc_%d_comp computes dense layer %d (%dx%d, %s).\n", li, li, l.In, l.Out, l.Act)
		fmt.Fprintf(&want, "func fc_%d_comp(input []int64, output []int64) {\n", li)
		for i := 0; i < l.Out; i++ {
			fmt.Fprintf(&want, "\toutput[%d] = actv_%s(", i, l.ActID())
			for j := 0; j < l.In; j++ {
				if j > 0 {
					want.WriteString(" + ")
				}
				fmt.Fprintf(&want, "input[%d]*%d", j, l.Weight(i, j))
			}
			fmt.Fprintf(&want, " + %d)\n", l.B[i])
		}
		want.WriteString("}\n")
		if !strings.Contains(model, want.String()) {
			t.Errorf("layer %d function differs from the reference rendering:\n%s", li, want.String())
		}
	}
}

func TestBuildRejectsBadName(t *testing.T) {
	_, p := auroraProgram(t)
	for _, bad := range []string{"", "1abc", "has space", "semi;colon", "dash-ed"} {
		if _, err := Build(p, bad); !errors.Is(err, ErrSnapshotBuild) {
			t.Errorf("Build(%q) = %v, want ErrSnapshotBuild", bad, err)
		}
	}
}

// brokenProgram returns a program whose first layer carries an activation
// outside the known four: its ActID is not an identifier, so both the
// activation unit declaring actv_<id> and the model unit calling it are
// syntactically broken.
func brokenProgram(t *testing.T) *quant.Program {
	t.Helper()
	_, p := auroraProgram(t)
	p.Layers[0].Act = nn.Activation(99)
	return p
}

// unitKey is the memo key activationUnit derives for p.
func unitKey(p *quant.Program) string {
	var ids []string
	for _, l := range p.Layers {
		if id := l.ActID(); !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	return strings.Join(ids, " ")
}

// memoSize returns the unit memo's entry count (activation units and model
// frames) and arranges for the memo to be put back as the test found it.
func memoSize(t *testing.T) int {
	t.Helper()
	unitMemo.Lock()
	defer unitMemo.Unlock()
	m, n := maps.Clone(unitMemo.m), unitMemo.bytes
	t.Cleanup(func() {
		unitMemo.Lock()
		unitMemo.m, unitMemo.bytes = m, n
		unitMemo.Unlock()
	})
	return len(m)
}

// requireBuildFailure asserts the full error chain of a unit that does not
// parse: classified as ErrSnapshotBuild, the parser's error list kept.
func requireBuildFailure(t *testing.T, err error, unit string) {
	t.Helper()
	var list scanner.ErrorList
	if !errors.Is(err, ErrSnapshotBuild) || !errors.As(err, &list) || !strings.Contains(err.Error(), unit) {
		t.Fatalf("Build = %v, want ErrSnapshotBuild wrapping the parser's ErrorList of the %s", err, unit)
	}
}

func TestBuildRejectsBrokenActivationUnit(t *testing.T) {
	before := memoSize(t)
	_, err := Build(brokenProgram(t), "broken")
	requireBuildFailure(t, err, "activation unit")
	if memoSize(t) != before {
		t.Error("an activation unit that does not parse must not be memoised")
	}
}

// TestBuildRejectsBrokenModelUnit: a memoised activation unit does not
// launder the model unit — every build checks the unit's own frame, and a
// frame that does not parse sends the unit itself to the parser, whose
// error list the build returns.
func TestBuildRejectsBrokenModelUnit(t *testing.T) {
	_, good := auroraProgram(t)
	mod, err := Build(good, "good")
	if err != nil {
		t.Fatal(err)
	}
	p := brokenProgram(t)
	memoSize(t)
	unitMemo.Lock()
	unitMemo.m[unitKey(p)] = mod.Activation
	unitMemo.Unlock()
	_, err = Build(p, "broken")
	requireBuildFailure(t, err, "model unit")
}

// memoHas reports whether key is in the unit memo.
func memoHas(key string) bool {
	unitMemo.Lock()
	defer unitMemo.Unlock()
	_, ok := unitMemo.m[key]
	return ok
}

// TestMemoCapKeepsResultsCorrect: with the memo full, a new activation unit
// is still generated, parsed and returned, and a new model frame is still
// parsed for its own build — only neither is stored.
func TestMemoCapKeepsResultsCorrect(t *testing.T) {
	cfg := quant.DefaultConfig()
	cfg.OutputScale = 777 // a key and a frame no other test builds
	net := nn.New([]int{4, 3, 1}, []nn.Activation{nn.Tanh, nn.Sigmoid}, 5)
	p := quant.Quantize(net, cfg)

	before := memoSize(t)
	unitMemo.Lock()
	saved := unitMemo.bytes
	unitMemo.bytes = maxMemoBytes
	unitMemo.Unlock()
	capped, err := Build(p, "capped")
	// Past the cap the frame is parsed, not assumed: a broken one is refused.
	brokenParses := capped != nil && frameParses(strings.Replace(capped.Model, "func init()", "func init(", 1))
	unitMemo.Lock()
	unitMemo.bytes = saved
	unitMemo.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if brokenParses {
		t.Error("past the cap, the frame of a broken model unit was accepted")
	}
	frame := frameOf(capped.Model)
	if memoSize(t) != before || memoHas(frame) {
		t.Fatal("a unit or frame past the cap must not be stored")
	}
	memoised, err := Build(p, "capped")
	if err != nil {
		t.Fatal(err)
	}
	if memoSize(t) != before+2 || !memoHas(frame) {
		t.Fatal("an activation unit and a model frame within the cap must both be stored")
	}
	if capped.Activation != memoised.Activation || capped.Model != memoised.Model {
		t.Error("units built past the cap differ from memoised ones")
	}
	if err := Validate(capped.Source()); err != nil {
		t.Errorf("source built past the cap does not parse: %v", err)
	}
}

// TestConcurrentBuildsMatchSerial: the experiment harness's -parallel makes
// concurrent Quantize + Build a real path. Distinct nets under two configs
// from 8 goroutines must return units byte-identical to a serial run (run
// under -race in CI).
func TestConcurrentBuildsMatchSerial(t *testing.T) {
	type job struct {
		net *nn.Network
		cfg quant.Config
	}
	var jobs []job
	for i := 0; i < 8; i++ {
		cfg := quant.DefaultConfig()
		if i%2 == 1 {
			cfg.OutputScale = 4242
		}
		jobs = append(jobs, job{nn.New([]int{10, 8, 4, 1}, []nn.Activation{nn.Tanh, nn.Tanh, nn.Sigmoid}, int64(100+i)), cfg})
	}
	build := func(j job) *Module {
		mod, err := Build(quant.Quantize(j.net, j.cfg), "conc")
		if err != nil {
			t.Error(err)
			return &Module{}
		}
		return mod
	}
	got := make([]*Module, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = build(j)
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		want := build(j)
		if got[i].Activation != want.Activation || got[i].Model != want.Model {
			t.Errorf("job %d: concurrent build differs from the serial one", i)
		}
	}
}

func TestBuildAcceptsValidNames(t *testing.T) {
	_, p := auroraProgram(t)
	for _, good := range []string{"aurora", "mocc_v2", "A1", "_x"} {
		if _, err := Build(p, good); err != nil {
			t.Errorf("Build(%q) failed: %v", good, err)
		}
	}
}

func TestValidateCatchesSyntaxErrors(t *testing.T) {
	if err := Validate("package snapshot\nfunc broken( {"); err == nil {
		t.Error("Validate must reject broken source")
	}
}

func TestGenerateInlinesWeights(t *testing.T) {
	// A known weight must appear verbatim in the source (Listing 2 style).
	net := nn.New([]int{2, 1}, []nn.Activation{nn.Linear}, 1)
	net.Layers[0].W[0][0] = 1.0 // becomes WeightScale exactly
	cfg := quant.DefaultConfig()
	p := quant.Quantize(net, cfg)
	src, err := Generate(p, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	want := "input[0]*" + strconv.FormatInt(cfg.WeightScale, 10)
	if !strings.Contains(src, want) {
		t.Errorf("source must inline weight as %q:\n%s", want, src)
	}
}

func TestRuntimeSourceParses(t *testing.T) {
	if err := Validate(RuntimeSource()); err != nil {
		t.Fatalf("runtime source invalid: %v", err)
	}
}

func TestModuleFields(t *testing.T) {
	_, p := auroraProgram(t)
	m, err := Build(p, "snap1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "snap1" || m.Program != p || m.Activation == "" || m.Model == "" {
		t.Errorf("module fields wrong: %+v", m.Name)
	}
}

func BenchmarkGenerateAurora(b *testing.B) {
	net := nn.New([]int{30, 32, 16, 1}, []nn.Activation{nn.Tanh, nn.Tanh, nn.Linear}, 1)
	p := quant.Quantize(net, quant.DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p, "aurora"); err != nil {
			b.Fatal(err)
		}
	}
}
