package codegen_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// fuzzProgram returns the program a fuzz input describes. zoo picks a zoo
// net (1…len) or, at any other value, a random one from arch: 1–3 layers of
// widths 1–8 with any of the four activations. arch also picks the output
// scale. weights then overwrites weights and biases in order, one choice per
// byte among 0, ±1, MinInt64, MaxInt64 and the next eight bytes read as an
// int64, until it runs out.
func fuzzProgram(zoo uint8, arch, weights []byte) *quant.Program {
	at := func(i int) int {
		if i < len(arch) {
			return int(arch[i])
		}
		return 0
	}
	cfg := quant.DefaultConfig()
	cfg.OutputScale = []int64{10, 1000, 4096}[at(0)%3]
	var net *nn.Network
	if nets := zooNets(); zoo >= 1 && int(zoo) <= len(nets) {
		net = nets[zoo-1].net
	} else {
		layers := 1 + at(1)%3
		sizes := []int{1 + at(2)%8}
		var acts []nn.Activation
		for l := 0; l < layers; l++ {
			sizes = append(sizes, 1+at(3+2*l)%8)
			acts = append(acts, []nn.Activation{nn.Linear, nn.ReLU, nn.Tanh, nn.Sigmoid}[at(4+2*l)%4])
		}
		net = nn.New(sizes, acts, int64(at(9)))
	}
	p := quant.Quantize(net, cfg)

	next := func() (int64, bool) {
		if len(weights) == 0 {
			return 0, false
		}
		c := weights[0]
		weights = weights[1:]
		switch c % 6 {
		case 0:
			return 0, true
		case 1:
			return 1, true
		case 2:
			return -1, true
		case 3:
			return math.MinInt64, true
		case 4:
			return math.MaxInt64, true
		}
		var raw [8]byte
		weights = weights[copy(raw[:], weights):]
		return int64(binary.LittleEndian.Uint64(raw[:])), true
	}
	for _, l := range p.Layers {
		for i := 0; i < l.Out; i++ {
			for j := 0; j < l.In; j++ {
				if v, ok := next(); ok {
					l.SetWeight(i, j, v)
				}
			}
			if v, ok := next(); ok {
				l.B[i] = v
			}
		}
	}
	return p
}

// fuzzName turns s into a valid snapshot name: its identifier bytes, with an
// "n" in front when they are empty or start with a digit.
func fuzzName(s string) string {
	var b []byte
	for i := 0; i < len(s) && len(b) < 16; i++ {
		if c := s[i]; c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' {
			b = append(b, c)
		}
	}
	if len(b) == 0 || b[0] <= '9' && b[0] >= '0' {
		b = append([]byte{'n'}, b...)
	}
	return string(b)
}

// tokenBytes are the byte values that start, end or change the kind of a Go
// token; a fuzz input tries them at its position after its own c.
const tokenBytes = "0189_xXeEiob.+-*/()[]{}\"'`\\ \n:,;"

// editBudget bounds the unit bytes one fuzz input edits and parses: a
// random unit tries all or most of the values, a zoo-sized one c and a few.
const editBudget = 128 << 10

// FuzzModelUnitCheck is the execute-both check of the model-unit frame
// (DESIGN.md §4k). Every generated unit's frame parses, exactly as the unit
// does by Validate. And for the unit with the byte at pos deleted, flipped
// to c or to one of tokenBytes, or with one of those inserted before it,
// the fast path accepts only what Validate accepts: a unit parses whenever
// its frame does.
func FuzzModelUnitCheck(f *testing.F) {
	// As many random programs as zoo nets, so that mutation starts from
	// small units as often as from zoo-sized ones.
	for i, n := range zooNets() {
		f.Add(uint8(i+1), []byte{byte(i)}, []byte(nil), n.name, uint32(1000*i), byte(0))
		f.Add(uint8(0), []byte{byte(i), byte(i), byte(3 * i), byte(5 * i), byte(i), byte(7 * i), byte(i + 1)},
			[]byte{byte(i), 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 6, 7, 8}, "n"+n.name, uint32(300+97*i), byte(0))
	}
	f.Fuzz(func(t *testing.T, zoo uint8, arch, weights []byte, name string, pos uint32, c byte) {
		unit, err := codegen.Generate(fuzzProgram(zoo, arch, weights), fuzzName(name))
		if err != nil {
			t.Fatal(err)
		}
		if fast, err := codegen.FrameParses(unit), codegen.Validate(unit); !fast || err != nil {
			t.Fatalf("generated unit: frame parses %v, Validate = %v\n%s", fast, err, unit)
		}
		check := func(mutant string) {
			if codegen.FrameParses(mutant) {
				if err := codegen.Validate(mutant); err != nil {
					t.Fatalf("the frame parses but the unit does not: %v\n%s", err, mutant)
				}
			}
		}
		i := int(pos % uint32(len(unit)))
		check(unit[:i] + unit[i+1:])
		values := string([]byte{c}) + tokenBytes
		for _, v := range []byte(values[:min(len(values), max(1, editBudget/len(unit)))]) {
			check(unit[:i] + string([]byte{v}) + unit[i:])
			if v != unit[i] {
				check(unit[:i] + string([]byte{v}) + unit[i+1:])
			}
		}
	})
}

// referenceFrame is appendFrame as it was before its scan skipped bytes by
// class (DESIGN.md §4k): at every byte it looks at the previous byte and the
// suffixes, so it defines the bytes the frame must be.
func referenceFrame(b []byte, src string) []byte {
	done := 0 // src[:done] is in b
	for i := 0; i < len(src); i++ {
		n, fill := 0, byte('0')
		head, rest, prev := src[:i+1], src[i+1:], byte(0)
		if i > 0 {
			prev = src[i-1]
		}
		switch src[i] {
		case '(':
			n = referenceLiteralLen(rest)
		case '*':
			if prev == ']' {
				n = referenceLiteralLen(rest)
			}
		case ' ':
			if prev == '+' {
				n = referenceLiteralLen(rest)
			} else if strings.HasSuffix(head, "// Snapshot module ") {
				n, fill = referenceIdentLen(rest), '_'
			}
		case '_':
			if strings.HasSuffix(head, "Infer_") {
				n, fill = referenceIdentLen(rest), '_'
			}
		case '"':
			if strings.HasSuffix(head, `registerModel("`) {
				n, fill = referenceIdentLen(rest), '_'
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

// referenceLiteralLen is the length of the canonical decimal s starts with
// when a byte outside [0-9A-Za-z_.] follows it, else 0.
func referenceLiteralLen(s string) int {
	d := 0
	if s != "" && s[0] == '-' {
		d = 1
	}
	n := d
	for n < len(s) && '0' <= s[n] && s[n] <= '9' {
		n++
	}
	if n == d || s[d] == '0' && n > d+1 || n == len(s) || referenceWordByte(s[n]) || s[n] == '.' {
		return 0
	}
	return n
}

func referenceIdentLen(s string) int {
	n := 0
	for n < len(s) && referenceWordByte(s[n]) {
		n++
	}
	return n
}

func referenceWordByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_'
}

// FuzzFrameMatchesReference: the frame appendFrame emits is referenceFrame's,
// byte for byte, for every generated unit (zoo nets and fuzzProgram's) with
// any text spliced in at any position, so edits meet every context the
// class table skips or stops at.
func FuzzFrameMatchesReference(f *testing.F) {
	for i, n := range zooNets() {
		f.Add(uint8(i+1), []byte{byte(i)}, []byte(nil), n.name, uint32(97*i), "")
		f.Add(uint8(0), []byte{byte(i), byte(i), byte(3 * i), byte(5 * i), byte(i), byte(7 * i), byte(i + 1)},
			[]byte{byte(i), 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 6, 7, 8}, "n"+n.name, uint32(300+97*i), tokenBytes)
	}
	// Every edit context once, each right before a literal or identifier it
	// takes: generated units never put a literal after "(".
	f.Add(uint8(0), []byte(nil), []byte(nil), "x", uint32(0),
		"// Snapshot module a\nInfer_b registerModel(\"c\" f(12) + 3 x[0]*-4, g(-5.0)+ 6 (07)")
	f.Fuzz(func(t *testing.T, zoo uint8, arch, weights []byte, name string, pos uint32, insert string) {
		unit, err := codegen.Generate(fuzzProgram(zoo, arch, weights), fuzzName(name))
		if err != nil {
			t.Fatal(err)
		}
		i := int(pos % uint32(len(unit)+1))
		src := unit[:i] + insert + unit[i:]
		got, want := codegen.AppendFrame([]byte("prefix"), src), referenceFrame([]byte("prefix"), src)
		if !bytes.Equal(got, want) {
			k := 0
			for k < min(len(got), len(want)) && got[k] == want[k] {
				k++
			}
			t.Fatalf("frames differ from byte %d: got %q, reference %q", k, got[k:min(len(got), k+40)], want[k:min(len(want), k+40)])
		}
	})
}
