package rewrite

import "testing"

// FuzzParseTerm checks the term parser never panics and accepted inputs
// round-trip (ground terms render back to parseable text).
func FuzzParseTerm(f *testing.F) {
	for _, seed := range []string{
		"42", "-1", `"str"`, "run", "open(1,3,0,128)",
		"Process(1,10,11,12,10,11,12,run,set,set)",
		"X:Int", "Z:Configuration", "f(g(h(1)),\"x\")",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		term, err := ParseTerm(src)
		if err != nil {
			return
		}
		again, err := ParseTerm(term.String())
		if err != nil {
			t.Fatalf("rendered term does not reparse: %v (%s)", err, term)
		}
		if !again.Equal(term) {
			t.Fatalf("round trip changed term: %s vs %s", term, again)
		}
	})
}

// FuzzParseConfig checks multi-term configuration parsing.
func FuzzParseConfig(f *testing.F) {
	f.Add("a b c\nopen(1,2,3,4)\n# comment\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := ParseConfig(src)
		if err != nil {
			return
		}
		if cfg.Kind != Config {
			t.Fatalf("ParseConfig returned %v", cfg.Kind)
		}
	})
}

// FuzzCompileEquivalence is the compiled-matcher equivalence fuzzer: for
// every pattern/subject pair the fuzzer invents, a rule whose pattern falls
// inside the compilable fragment must produce byte-identical bindings — same
// multiset of matches, same enumeration order — from the compiled matcher
// and the interpreter's Match. The early-exit path (matchAny, backing goal
// checks) must agree on match existence too. This is the contract the
// differential search tests pin end-to-end, exercised here at the matcher
// boundary with adversarial inputs.
func FuzzCompileEquivalence(f *testing.F) {
	seeds := [][2]string{
		{"c(N:Int) Z:Configuration", "c(1) c(2) c(3)"},
		{"c(N:Int) Z:Configuration", "c(1)"},
		{"c(N:Int) Z:Configuration", "d(1) d(2)"},
		{"c(X:Int) c(X:Int) Z:Configuration", "c(1) c(1) c(2)"},
		{"c(X:Int) c(X:Int)", "c(1) c(2)"},
		{"a b", "b a"},
		{"a b", "a a b"},
		{`f(g(h(1)),"x") Z:Configuration`, `f(g(h(1)),"x") k`},
		{"p(X:Int,Y:Int) q(Y:Int) Z:Configuration", "p(1,2) q(2) q(3)"},
		{"p(X:Universal) Z:Configuration", `p(f(1)) p("s") p(2)`},
		{"Process(P:Int,E:Int) msg(P:Int) Z:Configuration",
			"Process(1,0) msg(1) msg(2) Process(2,0)"},
		{"c(1) c(2)", "c(2) c(1)"},
		{"x(N:Int) x(M:Int) Z:Configuration", "x(1) x(2) x(3)"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, pat, subj string) {
		if len(pat) > 120 || len(subj) > 160 {
			t.Skip("oversized input")
		}
		lhs, err := ParseConfig(pat)
		if err != nil {
			t.Skip("unparseable pattern")
		}
		sub, err := ParseConfig(subj)
		if err != nil {
			t.Skip("unparseable subject")
		}
		if sub.HasVars() {
			t.Skip("subjects are ground terms")
		}
		if len(lhs.Args) > 6 || len(sub.Args) > 8 {
			t.Skip("bounded multiset sizes keep AC matching cheap")
		}
		rule := Rule{Name: "fuzz", LHS: lhs}
		cc := Compile([]Rule{rule})
		cr := cc.rules[0]
		if cr == nil {
			t.Skip("outside the compilable fragment")
		}
		want := Match(lhs, sub, nil)
		m := cc.getScratch()
		defer cc.putScratch(m)
		got := cr.matchCompiled(sub, nil, m)
		if renderBindings(got) != renderBindings(want) {
			t.Fatalf("pattern %q vs subject %q:\ncompiled:\n%s\ninterpreted:\n%s",
				pat, subj, renderBindings(got), renderBindings(want))
		}
		if any := cr.matchAny(sub, nil, m); any != (len(want) > 0) {
			t.Fatalf("pattern %q vs subject %q: matchAny=%v, interpreter found %d matches",
				pat, subj, any, len(want))
		}
	})
}

// FuzzInternParts cross-checks the parts-probing interners against their
// build-then-intern equivalents: replaceConfig (adding parts to an interned
// configuration, nothing removed) and InternOp must return the exact
// canonical pointer Intern(NewConfig(...)) / Intern(NewOp(...)) does, for
// any multiset of parts, including spliced configurations and duplicate
// elements.
func FuzzInternParts(f *testing.F) {
	f.Add("c(1) c(2) c(3)", "d(4)")
	f.Add("a a b", "")
	f.Add("Process(1,0,0,0) msg(1)", "msg(1) msg(2)")
	f.Add("", "k(9)")
	f.Add(`"s" 7 f(g(1))`, "f(g(1))")
	f.Fuzz(func(t *testing.T, part1, part2 string) {
		if len(part1) > 120 || len(part2) > 120 {
			t.Skip("oversized input")
		}
		a, err := ParseConfig(part1)
		if err != nil {
			t.Skip("unparseable part")
		}
		b, err := ParseConfig(part2)
		if err != nil {
			t.Skip("unparseable part")
		}
		if a.HasVars() || b.HasVars() {
			t.Skip("interning is for ground states")
		}
		elems := append(append([]*Term{}, a.Args...), b)
		ia := Intern(a)
		if got, want := replaceConfig(ia, make([]bool, len(ia.Args)), []*Term{b}), Intern(NewConfig(elems...)); got != want {
			t.Fatalf("replaceConfig(%q + %q) = %s, want canonical %s", part1, part2, got, want)
		}
		if got, want := InternOp("fz", a, b), Intern(NewOp("fz", a, b)); got != want {
			t.Fatalf("InternOp(%q, %q) = %s, want canonical %s", part1, part2, got, want)
		}
	})
}

// FuzzReplace pins replaceConfig — the O(k) successor interner behind
// Env.Replace — to its definition: for any interned configuration, any
// subset of removed elements (bit j of mask removes element j) and any
// added elements, it returns the pointer Intern(NewConfig(kept...,
// objs...)) does. The seeds cover a removed element equal to a kept one, an
// added element equal to a kept one, and an empty remainder.
func FuzzReplace(f *testing.F) {
	f.Add("a a b", uint64(1), "c")   // removed equals a kept element
	f.Add("a b", uint64(0), "a")     // added equals a kept element
	f.Add("a b c", uint64(7), "d e") // empty remainder
	f.Add("a b c", uint64(7), "")    // empty successor
	f.Add("c(1) c(2) msg(3)", uint64(4), "c(3) c(1)")
	f.Add(`Process(1,0,0,0) "s" 7`, uint64(2), `"s" 8`)
	f.Fuzz(func(t *testing.T, subj string, mask uint64, add string) {
		if len(subj) > 120 || len(add) > 120 {
			t.Skip("oversized input")
		}
		s, err := ParseConfig(subj)
		if err != nil {
			t.Skip("unparseable subject")
		}
		a, err := ParseConfig(add)
		if err != nil {
			t.Skip("unparseable additions")
		}
		if s.HasVars() || a.HasVars() {
			t.Skip("interning is for ground states")
		}
		is := Intern(s)
		if is.Kind != Config {
			t.Skip("subject is not a configuration")
		}
		removed := make([]bool, len(is.Args))
		var kept []*Term
		for j, e := range is.Args {
			if j < 64 && mask>>j&1 == 1 {
				removed[j] = true
			} else {
				kept = append(kept, e)
			}
		}
		objs := append([]*Term{}, a.Args...)
		// replaceConfig first, so a class it creates is the one compared.
		got := replaceConfig(is, removed, objs)
		built := NewConfig(append(kept, objs...)...)
		if got.Hash() != built.Hash() {
			t.Fatalf("replaceConfig(%q, mask %b, %q): stored hash %x, recomputed %x",
				subj, mask, add, got.Hash(), built.Hash())
		}
		if want := Intern(built); got != want {
			t.Fatalf("replaceConfig(%q, mask %b, %q) = %s, want canonical %s", subj, mask, add, got, want)
		}
	})
}
