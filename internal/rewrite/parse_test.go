package rewrite

import (
	"errors"
	"math/rand"
	"testing"
)

func TestParseTermBasics(t *testing.T) {
	tests := []struct {
		in   string
		want *Term
	}{
		{"42", NewInt(42)},
		{"-7", NewInt(-7)},
		{`"hello world"`, NewStr("hello world")},
		{"run", NewOp("run")},
		{"f()", NewOp("f")},
		{"open(1, 3, 0, 128)", NewOp("open", NewInt(1), NewInt(3), NewInt(0), NewInt(128))},
		{"set(1,2,3)", NewOp("set", NewInt(1), NewInt(2), NewInt(3))},
		{"X:Int", NewVar("X", SortInt)},
		{"Z:Configuration", NewVar("Z", SortConfig)},
		{"Y:Universal", NewVar("Y", "")},
		{"nest(f(g(1)), \"s\")", NewOp("nest", NewOp("f", NewOp("g", NewInt(1))), NewStr("s"))},
		{
			`File(3,"/dev/mem",416,2,9)`,
			NewOp("File", NewInt(3), NewStr("/dev/mem"), NewInt(416), NewInt(2), NewInt(9)),
		},
	}
	for _, tt := range tests {
		got, err := ParseTerm(tt.in)
		if err != nil {
			t.Errorf("ParseTerm(%q): %v", tt.in, err)
			continue
		}
		if !got.Equal(tt.want) {
			t.Errorf("ParseTerm(%q) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

func TestParseTermErrors(t *testing.T) {
	for _, in := range []string{
		"", "(", "f(", "f(1,", "f(1 2)", `"unterminated`, "1x", "f(1))", "X:",
		"@bad",
		// Braced configurations are Term.String's rendering of Config
		// terms, not term syntax; ParseConfig builds configurations.
		"{c(0)}", "{}",
	} {
		if _, err := ParseTerm(in); !errors.Is(err, ErrParseTerm) {
			t.Errorf("ParseTerm(%q) err = %v, want ErrParseTerm", in, err)
		}
	}
}

func TestParseConfig(t *testing.T) {
	src := `
# a comment line
Process(1,10,11,12,10,11,12,run,set,set)   # trailing comment
File(3,"/etc/passwd",0,40,41)
open(1,3,0,0) setuid(1,-1,128)
`
	cfg, err := ParseConfig(src)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kind != Config || len(cfg.Args) != 4 {
		t.Fatalf("config = %s", cfg)
	}
	syms := map[string]bool{}
	for _, e := range cfg.Args {
		syms[e.Sym] = true
	}
	for _, want := range []string{"Process", "File", "open", "setuid"} {
		if !syms[want] {
			t.Errorf("config missing %s: %s", want, cfg)
		}
	}
}

// randTerm builds a random ground term for round-trip testing.
func randTerm(r *rand.Rand, depth int) *Term {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return NewInt(int64(r.Intn(2000) - 1000))
		case 1:
			return NewStr(string(rune('a' + r.Intn(26))))
		default:
			return NewOp([]string{"run", "term", "empty"}[r.Intn(3)])
		}
	}
	n := r.Intn(4)
	args := make([]*Term, n)
	for i := range args {
		args[i] = randTerm(r, depth-1)
	}
	return NewOp([]string{"f", "g", "open", "Process"}[r.Intn(4)], args...)
}

func TestParseTermRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		term := randTerm(r, 1+r.Intn(3))
		text := term.String()
		got, err := ParseTerm(text)
		if err != nil {
			t.Fatalf("round trip %d: ParseTerm(%q): %v", i, text, err)
		}
		if !got.Equal(term) {
			t.Fatalf("round trip %d: %s != %s", i, got, term)
		}
	}
}

func TestParseVariableRoundTrip(t *testing.T) {
	for _, v := range []*Term{
		NewVar("X", SortInt),
		NewVar("Z", SortConfig),
		NewVar("Any", ""),
	} {
		got, err := ParseTerm(v.String())
		if err != nil {
			t.Fatalf("ParseTerm(%q): %v", v.String(), err)
		}
		if got.Kind != Var || got.Sym != v.Sym || got.Sort != v.Sort {
			t.Errorf("round trip %s = %s", v, got)
		}
	}
}
