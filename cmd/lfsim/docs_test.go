package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// TestDocsCommandLinesParse takes every lfsim command line in README.md, CI
// and the verify skill, puts placeholders for the shell variables, and parses
// it without running anything: a stale flag in any of them fails here.
func TestDocsCommandLinesParse(t *testing.T) {
	for _, doc := range []struct {
		path     string
		markdown bool
		min      int // command lines the file holds today, so a broken extractor fails too
	}{
		{"../../README.md", true, 14},
		{"../../.github/workflows/ci.yml", false, 15},
		{"../../.claude/skills/verify/SKILL.md", true, 8},
	} {
		raw, err := os.ReadFile(doc.path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if doc.markdown {
			text = codeText(text)
		}
		cmds := lfsimCommands(text)
		if len(cmds) < doc.min {
			t.Errorf("%s: found %d lfsim command lines, want at least %d", doc.path, len(cmds), doc.min)
		}
		for _, args := range cmds {
			var stderr bytes.Buffer
			if _, err := parse(args, &stderr); err != nil {
				t.Errorf("%s: lfsim %s: %v\n%s", doc.path, strings.Join(args, " "), err, stderr.String())
			}
		}
	}
}

var inlineCode = regexp.MustCompile("`([^`]+)`")

// codeText returns a markdown file's code, one line per inline span (a span
// may wrap across lines in the source) followed by the fenced blocks' lines.
func codeText(md string) string {
	var b strings.Builder
	for i, part := range strings.Split(md, "```") {
		if i%2 == 1 { // a fenced block; its first line is the info string
			_, code, _ := strings.Cut(part, "\n")
			b.WriteString(code)
			continue
		}
		for _, m := range inlineCode.FindAllStringSubmatch(part, -1) {
			b.WriteString(strings.ReplaceAll(m[1], "\n", " ") + "\n")
		}
	}
	return b.String()
}

// launchers are the words that may precede lfsim in command position: go
// run, CI's census helper q, negation, a prompt and shell keywords. lfsim
// anywhere else (go build -o lfsim, a for list) is an operand, not a run, and
// the package path cmd/lfsim (README's layout table) is never a command.
var launchers = map[string]bool{"run": true, "q": true, "!": true, "$": true, "if": true, "then": true, "do": true}

// lfsimCommands returns the arguments of every lfsim run in shell text.
// Shell variables become placeholders: a scheme for $cc (CI's loop over the
// schemes), a plain word for the rest.
func lfsimCommands(text string) [][]string {
	text = strings.ReplaceAll(text, "\\\n", " ")
	text = os.Expand(text, func(name string) string {
		if name == "cc" {
			return "bbr"
		}
		return "x"
	})
	var cmds [][]string
	for _, line := range strings.Split(text, "\n") {
		for _, words := range shellCommands(line) {
			for i, w := range words {
				if filepath.Base(w) == "lfsim" && w != "cmd/lfsim" && i+1 < len(words) && (i == 0 || launchers[words[i-1]]) {
					cmds = append(cmds, words[i+1:])
					break
				}
			}
		}
	}
	return cmds
}

// shellCommands splits one shell line into simple commands: quotes group a
// word, any of ; | & < > ( ) ends a command, and # starts a comment.
func shellCommands(line string) [][]string {
	var cmds [][]string
	var words []string
	var word strings.Builder
	inWord, quote := false, rune(0)
	endWord := func() {
		if inWord {
			words = append(words, word.String())
			word.Reset()
			inWord = false
		}
	}
	endCmd := func() {
		endWord()
		if len(words) > 0 {
			cmds = append(cmds, words)
			words = nil
		}
	}
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				word.WriteRune(r)
			}
		case r == '"' || r == '\'':
			quote, inWord = r, true
		case r == '#' && !inWord:
			endCmd()
			return cmds
		case strings.ContainsRune(";|&<>()", r):
			endCmd()
		case unicode.IsSpace(r):
			endWord()
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	endCmd()
	return cmds
}
