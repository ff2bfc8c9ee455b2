package liteflow_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestAssemblyHygiene reads every internal/**/*.s as text, macros expanded,
// and fails on what no bit-for-bit kernel test can see:
//   - a function that uses a V-prefixed instruction or a Y register reaches
//     a RET along some path without a VZEROUPPER after its last
//     V-instruction (the compiler's SSE code after it then pays for the
//     dirty upper halves, about ten times the kernel's own time);
//   - such a function uses a legacy SSE instruction (no V prefix) on an X
//     or Y register;
//   - a fused multiply-add (VFMADD, VFMSUB, VFNMADD, VFNMSUB) appears
//     anywhere: it rounds once where the Go reference loops round twice;
//   - an AVX-512 form appears anywhere: a Z or K register, X16–X31 or
//     Y16–Y31, a masking or other EVEX suffix on the mnemonic (Go's .Z,
//     .BCST, .SAE; Intel's {k}, {z}), or a mnemonic with no VEX encoding
//     (asmEVEXOnly). internal/cpu checks for AVX and AVX2 only, so such a
//     form assembles and then faults on an AVX2 host (DESIGN.md §4k).
func TestAssemblyHygiene(t *testing.T) {
	n := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".s" {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n++
		for _, msg := range asmHygiene(string(src)) {
			t.Errorf("%s:%s", path, msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no assembly file under internal/")
	}
}

// TestAssemblyHygieneRejectsAVX512 runs the rules on fixtures: an AVX2
// function that passes, and that function with one AVX-512 form put in,
// once per form, each of which must fail as AVX-512.
func TestAssemblyHygieneRejectsAVX512(t *testing.T) {
	const clean = `TEXT ·k(SB), NOSPLIT, $0-8
	VMOVDQU (SI), Y0
	VPMADDWD (DI), Y0, Y1
	VPCMPGTQ Y1, Y0, Y2
	%s
	VZEROUPPER
	RET
`
	if bad := asmHygiene(fmt.Sprintf(clean, "VPADDQ Y2, Y1, Y1")); len(bad) != 0 {
		t.Fatalf("the AVX2 fixture fails: %v", bad)
	}
	for _, form := range []string{
		"VPADDQ Z2, Z1, Z1",            // Z register
		"VPADDQ Y2, Y1, K1, Y1",        // {k} masking, Go's spelling
		"VPADDQ.Z Y2, Y1, K1, Y1",      // {z} zeroing, Go's spelling
		"VPADDQ Y2, Y1, Y1 {k1}{z}",    // Intel's spelling
		"VPADDQ.BCST (AX), Y1, Y1",     // embedded broadcast
		"VPADDQ X17, X1, X1",           // X16–X31
		"VPADDQ Y2, Y31, Y1",           // Y16–Y31
		"VPMAXSQ Y2, Y1, Y1",           // 64-bit signed max
		"VPMINSQ Y2, Y1, Y1",           // 64-bit signed min
		"VPMULLQ Y2, Y1, Y1",           // 64-bit low multiply
		"VPABSQ Y2, Y1",                // 64-bit abs
		"VPSRAQ $3, Y2, Y1",            // 64-bit arithmetic shift
		"VPTERNLOGQ $0x96, Y2, Y1, Y0", // ternary logic
	} {
		bad := asmHygiene(fmt.Sprintf(clean, form))
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), "AVX-512") {
			t.Errorf("%s: no AVX-512 complaint (got %v)", form, bad)
		}
	}
}

var (
	asmComment = regexp.MustCompile(`//.*`)
	asmIdent   = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	asmFMA     = regexp.MustCompile(`\bVFN?M(ADD|SUB)`)
	asmEVEXReg = regexp.MustCompile(`\b([XY](1[6-9]|2[0-9]|3[01])|Z([12]?[0-9]|3[01])|K[0-7])\b|\{[kKzZ]`)
	// asmEVEXOnly matches the mnemonics AVX-512 added with no VEX form:
	// 64-bit lane min, max, multiply, abs and arithmetic shift, ternary
	// logic, two-table permutes, compress/expand, rotates, down-converting
	// moves, conflict and lzcnt, the 14-bit estimates, the FP classify and
	// fixup families, 64-bit-integer conversions, opmask blends and tests,
	// element-sized moves, the 32x4-style lane moves, word variable shifts
	// and permutes, and predicate compares.
	asmEVEXOnly = regexp.MustCompile(`^V(P(MAX|MIN)[SU]Q|PMULLQ|PABSQ|PSRAV?Q|PTERNLOG|PERM[IT]2|P?COMPRESS|P?EXPAND|PRO[LR]V?[DQ]|PMOV(US|S)?(QB|QW|QD|DB|DW|WB)\b|PCONFLICT|PLZCNT|RCP14|RSQRT14|GETEXP|GETMANT|RNDSCALE|SCALEF|FIXUPIMM|RANGE|REDUCE|FPCLASS|CVT\w*(QQ|2U|U\w*2)|ALIGN[DQ]|P?BLENDM|PTESTN?M|MOVDQ[AU](8|16|32|64)|\w*[0-9]X[0-9]|PERMW|PS(LL|RL|RA)VW|PCMPU?[BWDQ]\b|PBROADCASTM|DBPSADBW|PMULTISHIFT|PMADD52|PSH[LR]D|PERMB|PMOVM2|PMOV[BWDQ]2M)`)
	asmXY       = regexp.MustCompile(`\b[XY]([12]?[0-9]|3[01])\b`)
	asmY        = regexp.MustCompile(`\bY([12]?[0-9]|3[01])\b`)
	asmDefine   = regexp.MustCompile(`^#define\s+(\w+)(?:\(([^)]*)\))?\s*(.*)$`)
	asmTEXT     = regexp.MustCompile(`^TEXT\s+[^(]*·(\w+)\(SB\)`)
	asmLabel    = regexp.MustCompile(`^(\w+):\s*(.*)$`)
)

// asmInstr is one instruction of a function, macros expanded.
type asmInstr struct {
	line     int
	op, args string
}

// asmHygiene returns "line: problem" for each rule src breaks.
func asmHygiene(src string) []string {
	type macro struct{ params, body []string }
	macros := map[string]macro{}
	type fn struct {
		name   string
		code   []asmInstr
		labels map[string]int // label → index of the instruction it marks
	}
	var fns []*fn
	var bad []string
	lines := strings.Split(src, "\n")
	for i, line := range lines {
		lines[i] = strings.TrimSpace(asmComment.ReplaceAllString(line, ""))
		if asmFMA.MatchString(lines[i]) {
			bad = append(bad, fmt.Sprintf("%d: fused multiply-add: %s", i+1, lines[i]))
		}
		if asmEVEXReg.MatchString(lines[i]) {
			bad = append(bad, fmt.Sprintf("%d: AVX-512 register or masking: %s", i+1, lines[i]))
		}
	}
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if m := asmDefine.FindStringSubmatch(line); m != nil {
			var mac macro
			if m[2] != "" {
				for _, p := range strings.Split(m[2], ",") {
					mac.params = append(mac.params, strings.TrimSpace(p))
				}
			}
			for stmt := m[3]; ; {
				more := strings.HasSuffix(stmt, `\`)
				if stmt = strings.TrimSpace(strings.TrimSuffix(stmt, `\`)); stmt != "" {
					mac.body = append(mac.body, stmt)
				}
				if !more || i+1 == len(lines) {
					break
				}
				i++
				stmt = lines[i]
			}
			macros[m[1]] = mac
			continue
		}
		if m := asmTEXT.FindStringSubmatch(line); m != nil {
			fns = append(fns, &fn{name: m[1], labels: map[string]int{}})
			continue
		}
		if len(fns) == 0 || line == "" || line[0] == '#' {
			continue
		}
		f := fns[len(fns)-1]
		if m := asmLabel.FindStringSubmatch(line); m != nil {
			f.labels[m[1]] = len(f.code)
			line = m[2]
		}
		for _, stmt := range strings.Split(line, ";") {
			stmt = strings.TrimSpace(stmt)
			name := asmIdent.FindString(stmt)
			mac, ok := macros[name]
			if !ok || !strings.HasPrefix(stmt, name) {
				if stmt != "" {
					f.code = append(f.code, asmParse(i+1, stmt))
				}
				continue
			}
			arg := map[string]string{}
			if open := strings.IndexByte(stmt, '('); open >= 0 && len(mac.params) > 0 {
				for k, a := range strings.Split(strings.TrimSuffix(stmt[open+1:], ")"), ",") {
					if k < len(mac.params) {
						arg[mac.params[k]] = strings.TrimSpace(a)
					}
				}
			}
			for _, b := range mac.body {
				b = asmIdent.ReplaceAllStringFunc(b, func(id string) string {
					if a, ok := arg[id]; ok {
						return a
					}
					return id
				})
				f.code = append(f.code, asmParse(i+1, b))
			}
		}
	}

	for _, f := range fns {
		vex := false
		for _, in := range f.code {
			vex = vex || strings.HasPrefix(in.op, "V") || asmY.MatchString(in.args)
			if asmEVEXOnly.MatchString(in.op) || strings.Contains(in.op, ".") {
				bad = append(bad, fmt.Sprintf("%d: %s uses an AVX-512 form: %s %s", in.line, f.name, in.op, in.args))
			}
		}
		if !vex {
			continue
		}
		for _, in := range f.code {
			if !strings.HasPrefix(in.op, "V") && asmXY.MatchString(in.args) {
				bad = append(bad, fmt.Sprintf("%d: %s mixes legacy SSE into VEX code: %s %s", in.line, f.name, in.op, in.args))
			}
		}
		// Walk every path from the entry, upper halves clean, tracking
		// whether a V-instruction ran since the last VZEROUPPER.
		type state struct {
			at    int
			dirty bool
		}
		seen := map[state]bool{}
		work := []state{{}}
		for len(work) > 0 {
			s := work[len(work)-1]
			work = work[:len(work)-1]
			if s.at >= len(f.code) || seen[s] {
				continue
			}
			seen[s] = true
			in := f.code[s.at]
			switch {
			case in.op == "VZEROUPPER":
				s.dirty = false
			case strings.HasPrefix(in.op, "V"):
				s.dirty = true
			}
			target, isLabel := f.labels[in.args]
			switch {
			case in.op == "RET":
				if s.dirty {
					bad = append(bad, fmt.Sprintf("%d: %s reaches RET without VZEROUPPER after its last V-instruction", in.line, f.name))
				}
				continue
			case strings.HasPrefix(in.op, "J") && isLabel:
				work = append(work, state{target, s.dirty})
				if in.op == "JMP" {
					continue
				}
			}
			work = append(work, state{s.at + 1, s.dirty})
		}
	}
	return bad
}

// asmParse splits one statement into its mnemonic and operands.
func asmParse(line int, stmt string) asmInstr {
	op, args := stmt, ""
	if i := strings.IndexAny(stmt, " \t"); i >= 0 {
		op, args = stmt[:i], strings.TrimSpace(stmt[i:])
	}
	return asmInstr{line: line, op: op, args: args}
}
