package rewrite

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ErrParseTerm wraps term-syntax parse failures.
var ErrParseTerm = errors.New("rewrite: parse error")

// ParseTerm reads one term from the functional syntax Term.String produces:
//
//	42  -3  "str"  run  open(1,3,0,128)  Process(1,10,11,12,10,11,12,10,11,12)
//	X:Int  Z:Configuration  Y:Universal
//
// Configurations are not terms in this syntax: ParseConfig builds them from
// the multi-line query-file sections.
//
// Variables are written name:Sort, with the sort Universal meaning
// unsorted. Symbols start with a letter or underscore and may contain
// letters, digits, underscores, and hyphens.
func ParseTerm(src string) (*Term, error) {
	p := &termParser{src: src}
	t, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("%w: trailing input at %d: %q", ErrParseTerm, p.pos, p.rest())
	}
	return t, nil
}

// ParseConfig reads a whitespace-separated sequence of terms as a
// configuration — the format of a ROSA query file's object and message
// sections. Line comments start with '#'.
func ParseConfig(src string) (*Term, error) {
	var elems []*Term
	for _, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		p := &termParser{src: line}
		for {
			p.skipSpace()
			if p.pos >= len(p.src) {
				break
			}
			t, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			elems = append(elems, t)
		}
	}
	return NewConfig(elems...), nil
}

type termParser struct {
	src string
	pos int
}

func (p *termParser) rest() string {
	if p.pos >= len(p.src) {
		return ""
	}
	r := p.src[p.pos:]
	if len(r) > 20 {
		r = r[:20] + "..."
	}
	return r
}

func (p *termParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *termParser) errf(format string, args ...any) error {
	return fmt.Errorf("%w: at %d (%q): %s", ErrParseTerm, p.pos, p.rest(), fmt.Sprintf(format, args...))
}

func isSymStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isSymChar(c byte) bool {
	return c == '_' || c == '-' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (p *termParser) parseTerm() (*Term, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, p.errf("unexpected end of input")
	}
	c := p.src[p.pos]
	switch {
	case c == '"':
		return p.parseString()
	case c == '-' || unicode.IsDigit(rune(c)):
		return p.parseInt()
	case isSymStart(c):
		return p.parseSymbolic()
	default:
		return nil, p.errf("unexpected character %q", c)
	}
}

func (p *termParser) parseString() (*Term, error) {
	end := p.pos + 1
	for end < len(p.src) {
		if p.src[end] == '\\' {
			end += 2
			continue
		}
		if p.src[end] == '"' {
			break
		}
		end++
	}
	if end >= len(p.src) {
		return nil, p.errf("unterminated string")
	}
	s, err := strconv.Unquote(p.src[p.pos : end+1])
	if err != nil {
		return nil, p.errf("bad string: %v", err)
	}
	p.pos = end + 1
	return NewStr(s), nil
}

func (p *termParser) parseInt() (*Term, error) {
	start := p.pos
	if p.src[p.pos] == '-' {
		p.pos++
	}
	for p.pos < len(p.src) && unicode.IsDigit(rune(p.src[p.pos])) {
		p.pos++
	}
	v, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
	if err != nil {
		return nil, p.errf("bad integer: %v", err)
	}
	return NewInt(v), nil
}

func (p *termParser) parseSymbolic() (*Term, error) {
	start := p.pos
	for p.pos < len(p.src) && isSymChar(p.src[p.pos]) {
		p.pos++
	}
	name := p.src[start:p.pos]

	// Variable: name:Sort.
	if p.pos < len(p.src) && p.src[p.pos] == ':' {
		p.pos++
		sortStart := p.pos
		for p.pos < len(p.src) && isSymChar(p.src[p.pos]) {
			p.pos++
		}
		sort := p.src[sortStart:p.pos]
		if sort == "" {
			return nil, p.errf("variable %s missing sort", name)
		}
		if sort == "Universal" {
			sort = ""
		}
		return NewVar(name, sort), nil
	}

	// Application: name(args) or a bare constant.
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		var args []*Term
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == ')' {
			p.pos++
			return NewOp(name), nil
		}
		for {
			a, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, p.errf("unterminated argument list of %s", name)
			}
			switch p.src[p.pos] {
			case ',':
				p.pos++
			case ')':
				p.pos++
				return NewOp(name, args...), nil
			default:
				return nil, p.errf("expected ',' or ')' in %s(...)", name)
			}
		}
	}
	return NewOp(name), nil
}
