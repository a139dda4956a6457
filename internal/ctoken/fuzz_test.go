package ctoken

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// FuzzLex asserts the lexer never panics, never loses position accuracy,
// always terminates with offsets that slice the input correctly, and emits
// exactly the tokens of refLex, the straightforward lexer it replaced.
func FuzzLex(f *testing.F) {
	f.Add("int x = 42;")
	f.Add("if (a && b) { f(x); }")
	f.Add("\"unterminated")
	f.Add("/* unterminated")
	f.Add("#define \\\n continued")
	f.Add("'\\'")
	f.Add("")
	// Latin-1 letters classify as identifier bytes; other high bytes do not.
	f.Add("\xaa")
	f.Add("\xc0abc")
	f.Add("é = 1;")
	f.Add("x\xd7y \xf7 1e+5f")
	for _, op := range operators {
		f.Add(op.text)
		f.Add("a" + op.text + "b" + op.text + "=c")
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks := Lex(src, 1)
		prevEnd := 0
		for _, tok := range toks {
			end := tok.Offset + len(tok.Text)
			if tok.Offset < prevEnd || end > len(src) {
				t.Fatalf("token %q at %d overlaps or overflows (prev end %d, len %d)",
					tok.Text, tok.Offset, prevEnd, len(src))
			}
			if src[tok.Offset:end] != tok.Text {
				t.Fatalf("token text %q not at its offset", tok.Text)
			}
			if tok.Line < 1 {
				t.Fatalf("token line %d", tok.Line)
			}
			prevEnd = end
		}
		if want := refLex(src, 1); !slices.Equal(toks, want) {
			t.Fatalf("Lex(%q) = %v, reference lexer gives %v", src, toks, want)
		}
		prefix := Lex("prefix(7);\n", 3) // spare capacity: appends in place
		got := AppendLex(prefix, src, 5)
		if want := append(slices.Clone(prefix), Lex(src, 5)...); !slices.Equal(got, want) {
			t.Fatalf("AppendLex(prefix, %q, 5) = %v, want %v", src, got, want)
		}
		// Abstraction must be total.
		if got := Abstract(toks); len(got) != len(toks) {
			t.Fatalf("Abstract changed length")
		}
	})
}

// refLex is the lexer as first written: identifier bytes classified with
// unicode.IsLetter on every call and operators matched by a linear
// longest-first HasPrefix scan of the whole table. FuzzLex holds Lex to it
// token for token.
func refLex(src string, startLine int) []Token {
	var toks []Token
	line := startLine
	i := 0
	lineStart := 0
	n := len(src)
	atLineStart := true

	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
			lineStart = i
			atLineStart = true
			continue
		case c == ' ' || c == '\t' || c == '\r':
			i++
			continue
		case c == '#' && atLineStart:
			for i < n {
				if src[i] == '\\' && i+1 < n && src[i+1] == '\n' {
					i += 2
					line++
					lineStart = i
					continue
				}
				if src[i] == '\n' {
					break
				}
				i++
			}
			continue
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
			continue
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
					lineStart = i + 1
				}
				i++
			}
			i += 2
			if i > n {
				i = n
			}
			continue
		}
		atLineStart = false
		col := i - lineStart
		switch {
		case refIdentStart(c):
			start := i
			for i < n && refIdentPart(src[i]) {
				i++
			}
			text := src[start:i]
			kind := Identifier
			if keywords[text] {
				kind = Keyword
			}
			tok := Token{Kind: kind, Text: text, Line: line, Col: col, Offset: start}
			j := i
			for j < n && (src[j] == ' ' || src[j] == '\t') {
				j++
			}
			if kind == Identifier && j < n && src[j] == '(' {
				tok.Call = true
			}
			toks = append(toks, tok)
		case c >= '0' && c <= '9':
			start := i
			for i < n && (refIdentPart(src[i]) || src[i] == '.' ||
				((src[i] == '+' || src[i] == '-') && i > start && (src[i-1] == 'e' || src[i-1] == 'E'))) {
				i++
			}
			toks = append(toks, Token{Kind: Number, Text: src[start:i], Line: line, Col: col, Offset: start})
		case c == '"' || c == '\'':
			quote := c
			start := i
			i++
			for i < n && src[i] != quote {
				if src[i] == '\\' && i+1 < n {
					i++
				}
				if src[i] == '\n' {
					break
				}
				i++
			}
			if i < n && src[i] == quote {
				i++
			}
			toks = append(toks, Token{Kind: String, Text: src[start:i], Line: line, Col: col, Offset: start})
		default:
			text, kind := src[i:i+1], Punct
			for _, op := range operators {
				if strings.HasPrefix(src[i:], op.text) {
					text, kind = op.text, op.kind
					break
				}
			}
			start := i
			i += len(text)
			toks = append(toks, Token{Kind: kind, Text: text, Line: line, Col: col, Offset: start})
		}
	}
	return toks
}

func refIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }

func refIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || (c >= '0' && c <= '9')
}
