// Package codegen performs LiteFlow's automatic layer-wise code translation
// (paper §3.1, Listings 1 and 2): it turns a quantized NN snapshot into
// source code with all parameters inlined, ready to be compiled into a
// loadable module.
//
// The paper emits C via Jinja templates and compiles it with GCC into a .ko
// kernel module. This port emits Go and checks it with go/parser — the
// compile step's semantic twin in an offline, cgo-free environment. Like the
// paper's module, a snapshot is several compilation units of one package:
//
//   - the activation unit: rescale and one lut/actv helper pair per distinct
//     quant.Layer.ActID. No weight reaches it, so every retuned snapshot of
//     one architecture links the same unit; it is generated and parsed once
//     per distinct content and its text memoised process-wide;
//   - the model unit: fc_<i>_comp with every weight inlined, the Infer_<name>
//     entry point and the registering init, emitted on every Build. Its frame
//     — the unit with the snapshot name and every weight and bias literal
//     taken out — is fixed by the program's shape, so it is parsed once per
//     shape and memoised beside the activation units; a unit parses whenever
//     its frame does (DESIGN.md §4k).
//
// The runtime installs an equivalent in-memory quant.Program (same integer
// parameters, same arithmetic); a test compiles and runs the units of the
// model zoo and compares every output bit with Program.Infer.
package codegen

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// ErrSnapshotBuild is wrapped into every snapshot generation/validation
// failure, so callers can classify build failures with errors.Is without
// string matching (the slow path's retry policy keys off it).
var ErrSnapshotBuild = errors.New("codegen: snapshot build failed")

// Module is a generated snapshot module: the source artifact — two files of
// one package, each valid Go by go/parser's verdict before Build returned it
// (the model unit through its frame, parsed once per shape) — plus the
// executable program the kernel side installs.
type Module struct {
	// Name identifies the snapshot (becomes part of generated symbols).
	Name string
	// Activation is the activation unit: rescale and the actv helpers Model
	// calls. Modules of one architecture and quant config share the string.
	Activation string
	// Model is the model unit: layer functions with inlined weights, the
	// Infer_<Name> entry point and the registering init.
	Model string
	// Program is the in-memory executable equivalent of the source.
	Program *quant.Program
}

// Every unit starts with unitHeader and a comment, then pkgClause, then
// declarations; Source cuts units at pkgClause to splice them into one file.
const (
	unitHeader = "// Code generated by liteflow codegen; DO NOT EDIT.\n//\n"
	pkgClause  = "package snapshot\n\n"
)

// Source assembles the module as one self-contained file: the model unit's
// header, then the declarations of the activation unit and the model unit.
func (m *Module) Source() string {
	head, model, _ := strings.Cut(m.Model, pkgClause)
	_, act, _ := strings.Cut(m.Activation, pkgClause)
	return head + pkgClause + act + "\n" + model
}

// Generate emits the model unit of program p's snapshot module, mirroring the
// paper's generated kernel module: a per-layer computation function chain
// (the Listing 1 skeleton with every weight and bias inlined as in Listing
// 2), a single exported inference entry point, and a module-init function
// registering it with the LiteFlow core. A name that is not a valid Go
// identifier suffix is an ErrSnapshotBuild error.
func Generate(p *quant.Program, name string) (string, error) {
	if !validIdent(name) {
		return "", fmt.Errorf("%w: %q is not a valid snapshot name", ErrSnapshotBuild, name)
	}
	// Emitted into a recycled buffer, sized so Aurora- and MOCC-class modules
	// need no regrowth (a term "input[NN]*-NNNNN + " is ~20 bytes); the
	// returned string is then the one allocation of the unit's size.
	bp := unitBufs.Get().(*[]byte)
	b := slices.Grow((*bp)[:0], 1024+24*p.NumParams()+128*len(p.Layers))
	b = append(b, unitHeader...)
	b = fmt.Appendf(b, "// Snapshot module %s: integer-only inference, %d layers,\n"+
		"// input dim %d (scale %d), output dim %d (scale %d).\n",
		name, len(p.Layers), p.InputSize(), quant.InputScale, p.OutputSize(), p.OutputScale)
	b = append(b, pkgClause...)

	for li, l := range p.Layers {
		b = fmt.Appendf(b, "// fc_%d_comp computes dense layer %d (%dx%d, %s).\n"+
			"func fc_%d_comp(input []int64, output []int64) {\n", li, li, l.In, l.Out, l.Act, li)
		actv := "] = actv_" + l.ActID() + "("
		for i := 0; i < l.Out; i++ {
			b = append(b, "\toutput["...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, actv...)
			for j := 0; j < l.In; j++ {
				b = append(b, "input["...)
				b = strconv.AppendInt(b, int64(j), 10)
				b = append(b, "]*"...)
				b = strconv.AppendInt(b, l.Weight(i, j), 10)
				b = append(b, " + "...)
			}
			b = strconv.AppendInt(b, l.B[i], 10)
			b = append(b, ")\n"...)
		}
		b = append(b, "}\n\n"...)
	}

	// Chain of calls: buf0/buf1 ping-pong, final layer writes output.
	b = fmt.Appendf(b, "// Infer_%s runs the full snapshot. input is at scale %d,\n"+
		"// output at scale %d.\nfunc Infer_%s(input []int64, output []int64) {\n"+
		"\tvar buf0, buf1 [%d]int64\n\t_, _ = buf0, buf1\n",
		name, quant.InputScale, p.OutputScale, name, p.MaxWidth())
	cur := "input"
	for li, l := range p.Layers {
		dst := fmt.Sprintf("buf%d[:]", li%2)
		if li == len(p.Layers)-1 {
			dst = "output"
		}
		b = fmt.Appendf(b, "\tfc_%d_comp(%s, %s)\n", li, cur, dst)
		cur = fmt.Sprintf("buf%d[:%d]", li%2, l.Out)
	}
	b = fmt.Appendf(b, "}\n\n// init registers the snapshot with the LiteFlow core module on load\n"+
		"// (the insmod-time lf_register_model call of the paper's NN modules).\n"+
		"func init() {\n\tregisterModel(%q, %d, %d, Infer_%s)\n}\n",
		name, p.InputSize(), p.OutputSize(), name)
	unit := string(b)
	*bp = b
	unitBufs.Put(bp)
	return unit, nil
}

// unitBufs recycles the buffers Generate emits model units into and
// frameParses cuts frames into.
var unitBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxMemoBytes bounds the unit memo (about 50 activation units or 170 model
// frames of Aurora's size). Activation units and frames are both determined
// by one architecture under one quant config, of which a run meets a
// handful; a unit or frame that does not fit is parsed for its Build alone.
const maxMemoBytes = 4 << 20

// unitMemo holds the text that go/parser accepted, nothing else: activation
// units keyed by the ActIDs they declare helpers for, and model frames keyed
// by themselves.
var unitMemo = struct {
	sync.Mutex
	m     map[string]string
	bytes int
}{m: map[string]string{}}

// memoize stores unit under key unless that would take the memo past
// maxMemoBytes. The caller holds the lock.
func memoize(key, unit string) {
	if unitMemo.bytes+len(unit) <= maxMemoBytes {
		unitMemo.m[key] = unit
		unitMemo.bytes += len(unit)
	}
}

// activationUnit returns the parsed activation unit declaring one helper per
// distinct ActID among p's layers, in order of first use. A missing unit is
// generated and parsed under the lock: once, however many builds race for it.
func activationUnit(p *quant.Program) (string, error) {
	var ids []string
	var layers []*quant.Layer
	for _, l := range p.Layers {
		if id := l.ActID(); !slices.Contains(ids, id) {
			ids, layers = append(ids, id), append(layers, l)
		}
	}
	key := strings.Join(ids, " ")
	unitMemo.Lock()
	defer unitMemo.Unlock()
	if unit, ok := unitMemo.m[key]; ok {
		return unit, nil
	}

	b := append([]byte(unitHeader), `// Activation unit: the fixed-point helpers snapshot model units call. It
// follows from quantization scales, table size and range and activations,
// never from a weight: retuned snapshots of one architecture share this file.
`+pkgClause+`// rescale converts v from the accumulator scale to scale to, rounding half
// away from zero, exactly: |v| splits at the accumulator scale, so no product
// passes 2^48.
func rescale(v, to int64) int64 {
	const accScale = `+strconv.Itoa(quant.AccScale)+`
	if to == accScale {
		return v
	}
	m := uint64(v)
	if v < 0 {
		m = -m
	}
	n := int64(m/accScale*uint64(to) + (m%accScale*uint64(to)+accScale/2)/accScale)
	if v < 0 {
		return -n
	}
	return n
}
`...)
	for i, l := range layers {
		b = appendHelper(append(b, '\n'), l, ids[i])
	}
	unit := string(b)
	if err := Validate(unit); err != nil {
		return "", fmt.Errorf("activation unit: %w", err)
	}
	memoize(key, unit)
	return unit, nil
}

// appendFrame appends the frame of model unit src to b: src with the
// identifier run after each of the three texts Generate writes the snapshot
// name right after ("// Snapshot module ", "Infer_", `registerModel("`)
// replaced by "_", and every weight and bias literal replaced by "0". A
// literal is a maximal canonical decimal -?(0|[1-9][0-9]*) right after "]*",
// "+ " or "(", followed by a byte outside [0-9A-Za-z_.]. What is left
// follows from the program's shape alone, and src parses whenever its frame
// does (DESIGN.md §4k).
//
// Every edit starts right after one of the five bytes editStart marks, so
// the scan skips all others with one table load each and looks back at a
// byte or a suffix only at those five.
func appendFrame(b []byte, src string) []byte {
	done := 0 // src[:done] is in b
	for i := 0; i < len(src); i++ {
		if !editStart[src[i]] {
			continue
		}
		n, fill := 0, byte('0')
		rest := src[i+1:]
		switch src[i] {
		case '(':
			n = literalLen(rest)
		case '*':
			if i > 0 && src[i-1] == ']' {
				n = literalLen(rest)
			}
		case ' ':
			if i > 0 && src[i-1] == '+' {
				n = literalLen(rest)
			} else if strings.HasSuffix(src[:i+1], "// Snapshot module ") {
				n, fill = identLen(rest), '_'
			}
		case '_':
			if strings.HasSuffix(src[:i+1], "Infer_") {
				n, fill = identLen(rest), '_'
			}
		case '"':
			if strings.HasSuffix(src[:i+1], `registerModel("`) {
				n, fill = identLen(rest), '_'
			}
		}
		if n > 0 {
			b = append(append(b, src[done:i+1]...), fill)
			i += n
			done = i + 1
		}
	}
	return append(b, src[done:]...)
}

// editStart marks the bytes an edit of appendFrame's can follow: the last
// byte of "]*", "+ ", "(", "// Snapshot module ", "Infer_" and
// `registerModel("`.
var editStart = [256]bool{'(': true, '*': true, ' ': true, '_': true, '"': true}

// literalLen returns the length of the weight literal s starts with, or 0.
func literalLen(s string) int {
	d := 0
	if s != "" && s[0] == '-' {
		d = 1
	}
	n := d
	for n < len(s) && '0' <= s[n] && s[n] <= '9' {
		n++
	}
	if n == d || s[d] == '0' && n > d+1 || n == len(s) || isWordByte(s[n]) || s[n] == '.' {
		return 0
	}
	return n
}

// identLen returns the length of the run of identifier bytes s starts with.
func identLen(s string) int {
	n := 0
	for n < len(s) && isWordByte(s[n]) {
		n++
	}
	return n
}

// isWordByte reports whether c may appear in an ASCII Go identifier.
func isWordByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_'
}

// frameParses reports whether the frame of model unit src parses: because
// an earlier build's frame was the same text, or by parsing it now and
// memoising it within the cap. Like an activation unit, a frame is parsed
// under the lock, so once however many builds race for it. The frame is cut
// into a recycled buffer, so a hit allocates nothing.
func frameParses(src string) bool {
	bp := unitBufs.Get().(*[]byte)
	defer unitBufs.Put(bp)
	*bp = appendFrame((*bp)[:0], src)
	frame := *bp
	unitMemo.Lock()
	defer unitMemo.Unlock()
	// An activation unit is never stored under its own text.
	if unit, ok := unitMemo.m[string(frame)]; ok && unit == string(frame) {
		return true
	}
	text := string(frame)
	if Validate(text) != nil {
		return false
	}
	memoize(text, text)
	return true
}

// appendHelper emits the activation helper actv_<id> (and its LUT, when
// needed) that layer l's rows call.
func appendHelper(b []byte, l *quant.Layer, id string) []byte {
	switch l.Act {
	case nn.Tanh, nn.Sigmoid:
		tbl, tblMin, tblMax := l.TableData()
		b = fmt.Appendf(b, "// lut_%s approximates %s over the accumulator range [%d, %d].\n"+
			"var lut_%s = [%d]int64{", id, l.Act, tblMin, tblMax, id, len(tbl))
		for i, v := range tbl {
			if i%16 == 0 {
				b = append(b, "\n\t"...)
			}
			b = append(strconv.AppendInt(b, v, 10), ", "...)
		}
		b = append(b, "\n}\n\n"...)
		return fmt.Appendf(b, `// actv_%[1]s applies the %[2]s LUT with linear interpolation.
func actv_%[1]s(acc int64) int64 {
	const tblMin, tblMax = %[3]d, %[4]d
	if acc <= tblMin {
		return lut_%[1]s[0]
	}
	if acc >= tblMax {
		return lut_%[1]s[%[5]d]
	}
	span := int64(tblMax - tblMin)
	num := (acc - tblMin) * %[5]d
	idx := num / span
	rem := num %% span
	lo := lut_%[1]s[idx]
	hi := lut_%[1]s[idx+1]
	return lo + (hi-lo)*rem/span
}
`, id, l.Act, tblMin, tblMax, len(tbl)-1)
	case nn.ReLU:
		return fmt.Appendf(b, `// actv_%[1]s applies ReLU then rescales %[2]d -> %[3]d.
func actv_%[1]s(acc int64) int64 {
	if acc < 0 {
		return 0
	}
	return rescale(acc, %[3]d)
}
`, id, quant.AccScale, l.OutScale())
	default:
		return fmt.Appendf(b, `// actv_%[1]s rescales the linear accumulator %[2]d -> %[3]d.
func actv_%[1]s(acc int64) int64 {
	return rescale(acc, %[3]d)
}
`, id, quant.AccScale, l.OutScale())
	}
}

// Validate parses src as a Go source file, the stand-in for the paper's GCC
// compile step: generated modules must always be syntactically valid.
func Validate(src string) error {
	fset := token.NewFileSet()
	_, err := parser.ParseFile(fset, "snapshot.go", src, 0)
	return err
}

// Build generates, validates, and packages a snapshot module for p. Both
// units it returns are valid Go by go/parser's verdict in this process: the
// activation unit was parsed by the call that first needed it, and the model
// unit's frame by the first build of p's shape — a unit parses whenever its
// frame does. A frame that does not parse sends the model unit itself to
// Validate; a unit that does not parse fails the build (and nothing of it is
// memoised).
func Build(p *quant.Program, name string) (*Module, error) {
	model, err := Generate(p, name)
	if err != nil {
		return nil, err
	}
	act, err := activationUnit(p)
	if err == nil && !frameParses(model) {
		if err = Validate(model); err != nil {
			err = fmt.Errorf("model unit: %w", err)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%w: generated module does not compile: %w", ErrSnapshotBuild, err)
	}
	return &Module{Name: name, Activation: act, Model: model, Program: p}, nil
}

// RuntimeSource returns the support source that generated modules link
// against: the registration hook a module's init function calls. Compiling
// {RuntimeSource, generated module} as one package is the full analog of the
// paper's "GCC compiles the module against LiteFlow core headers".
func RuntimeSource() string {
	return `// Package snapshot hosts generated LiteFlow NN snapshot modules.
package snapshot

// InferFunc is the inference entry point of a generated snapshot module.
type InferFunc func(input []int64, output []int64)

// registered collects modules as their init functions run (insmod analog).
var registered = map[string]InferFunc{}

// dims records the declared input/output sizes of each registered module.
var dims = map[string][2]int{}

// registerModel is called by each generated module's init function, the
// analog of lf_register_model in the paper's kernel core module.
func registerModel(name string, inSize, outSize int, fn InferFunc) {
	registered[name] = fn
	dims[name] = [2]int{inSize, outSize}
}
`
}

func validIdent(s string) bool {
	return s != "" && (s[0] < '0' || s[0] > '9') && identLen(s) == len(s)
}
