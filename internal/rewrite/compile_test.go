package rewrite

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"privanalyzer/internal/telemetry"
)

// renderBindings renders a binding list order-sensitively: one line per
// binding, variables sorted by name within each. Two matchers agree exactly
// when these renderings are equal — including enumeration order, which the
// compiled path promises to reproduce.
func renderBindings(bs []Binding) string {
	lines := make([]string, len(bs))
	for i, b := range bs {
		names := make([]string, 0, len(b))
		for name := range b {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for j, name := range names {
			parts[j] = name + "=" + b[name].String()
		}
		lines[i] = strings.Join(parts, " ")
	}
	return strings.Join(lines, "\n")
}

// renderTerms renders a replacement list order-sensitively.
func renderTerms(ts []*Term) string {
	lines := make([]string, len(ts))
	for i, t := range ts {
		lines[i] = t.String()
	}
	return strings.Join(lines, "\n")
}

// TestCompileFragment pins the compilable fragment's boundary: which rules
// get specialized matchers and which keep the interpreter.
func TestCompileFragment(t *testing.T) {
	if n := len(tokens(4).Rules); Compile(tokens(4).Rules).CompiledCount() != n {
		t.Errorf("tokens: want all %d rules compiled", n)
	}
	v := vending()
	if got := Compile(v.Rules).CompiledCount(); got != len(v.Rules) {
		t.Errorf("vending: %d of %d rules compiled", got, len(v.Rules))
	}
	if got := Compile(counter().Rules).CompiledCount(); got != 0 {
		t.Errorf("counter (Op-rooted LHS): %d rules compiled, want 0", got)
	}
	outside := []struct {
		name string
		lhs  *Term
	}{
		{"nil LHS", nil},
		{"int root", NewInt(3)},
		{"var root", NewVar("X", SortInt)},
		{"two rest vars", NewConfig(NewVar("A", SortConfig), NewVar("B", SortConfig))},
		{"nested config", NewConfig(NewOp("f", NewConfig(NewOp("a"))))},
	}
	for _, tc := range outside {
		r := Rule{Name: tc.name, LHS: tc.lhs}
		if compileRule(&r) != nil {
			t.Errorf("%s: compiled, want interpreter fallback", tc.name)
		}
	}
	// A Configuration-sorted variable nested inside an element is a normal
	// first-order binding, not a rest variable — it stays in the fragment.
	in := Rule{Name: "nested-config-var", LHS: NewConfig(NewOp("f", NewVar("C", SortConfig)))}
	if compileRule(&in) == nil {
		t.Error("config-sorted var inside an element should compile")
	}
}

// TestCompiledMatchEquivalence runs compiled matchers and the interpreter
// over the same (pattern, subject) pairs and requires identical binding
// lists — same solutions, same enumeration order.
func TestCompiledMatchEquivalence(t *testing.T) {
	type tc struct {
		name string
		rule Rule
		subj *Term
	}
	incLHS := NewConfig(NewOp("c", NewVar("N", SortInt)), NewVar("Z", SortConfig))
	mergeLHS := NewConfig(
		NewOp("c", NewVar("N", SortInt)),
		NewOp("c", NewVar("M", SortInt)),
		NewVar("Z", SortConfig))
	nonlinear := NewConfig(NewOp("p", NewVar("X", SortInt), NewVar("X", SortInt)), NewVar("Z", SortConfig))
	exact := NewConfig(NewOp("a"), NewOp("b"))
	deep := NewConfig(NewOp("f", NewOp("g", NewVar("X", "")), NewStr("k")), NewVar("Z", SortConfig))

	toks := func(ns ...int64) *Term {
		elems := make([]*Term, len(ns))
		for i, n := range ns {
			elems[i] = NewOp("c", NewInt(n))
		}
		return NewConfig(elems...)
	}
	cases := []tc{
		{"inc/empty", Rule{LHS: incLHS}, NewConfig()},
		{"inc/one", Rule{LHS: incLHS}, toks(5)},
		{"inc/three", Rule{LHS: incLHS}, toks(1, 2, 3)},
		{"inc/dups", Rule{LHS: incLHS}, toks(2, 2, 2)},
		{"inc/noise", Rule{LHS: incLHS}, NewConfig(NewOp("d"), NewOp("c", NewInt(1)), NewStr("x"))},
		{"inc/non-config-subject", Rule{LHS: incLHS}, NewOp("c", NewInt(1))},
		{"merge/three", Rule{LHS: mergeLHS}, toks(1, 1, 2)},
		{"merge/four", Rule{LHS: mergeLHS}, toks(3, 1, 3, 1)},
		{"merge/too-few", Rule{LHS: mergeLHS}, toks(7)},
		{"nonlinear/hit", Rule{LHS: nonlinear}, NewConfig(NewOp("p", NewInt(1), NewInt(1)), NewOp("q"))},
		{"nonlinear/miss", Rule{LHS: nonlinear}, NewConfig(NewOp("p", NewInt(1), NewInt(2)))},
		{"exact/hit", Rule{LHS: exact}, NewConfig(NewOp("b"), NewOp("a"))},
		{"exact/extra-element", Rule{LHS: exact}, NewConfig(NewOp("a"), NewOp("b"), NewOp("c"))},
		{"deep/hit", Rule{LHS: deep}, NewConfig(NewOp("f", NewOp("g", NewInt(9)), NewStr("k")), NewOp("z"))},
		{"deep/wrong-literal", Rule{LHS: deep}, NewConfig(NewOp("f", NewOp("g", NewInt(9)), NewStr("j")))},
		{"deep/wrong-arity", Rule{LHS: deep}, NewConfig(NewOp("f", NewOp("g", NewInt(9), NewInt(8)), NewStr("k")))},
	}
	for _, c := range cases {
		comp := Compile([]Rule{c.rule})
		cr := comp.rules[0]
		if cr == nil {
			t.Fatalf("%s: rule did not compile", c.name)
		}
		m := comp.getScratch()
		got := renderBindings(cr.matchCompiled(c.subj, nil, m))
		comp.putScratch(m)
		want := renderBindings(Match(c.rule.LHS, c.subj, nil))
		if got != want {
			t.Errorf("%s: compiled bindings diverge from Match\ncompiled:\n%s\ninterpreter:\n%s", c.name, got, want)
		}
	}
}

// TestCompiledApplyEquivalence compares the full apply path — matching plus
// guard evaluation plus replacement construction — between the compiled
// matcher and Rule.apply, over rules with Build, Cond+Build, and RHS
// substitution.
func TestCompiledApplyEquivalence(t *testing.T) {
	systems := []struct {
		name string
		sys  *System
		subj []*Term
	}{
		{"tokens", tokens(4), []*Term{
			NewConfig(),
			NewConfig(NewOp("c", NewInt(0))),
			NewConfig(NewOp("c", NewInt(1)), NewOp("c", NewInt(1))),
			NewConfig(NewOp("c", NewInt(4)), NewOp("c", NewInt(2)), NewOp("c", NewInt(2))),
			NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(1)), NewOp("c", NewInt(0)), NewOp("c", NewInt(1))),
			NewOp("c", NewInt(1)), // non-Config subject
		}},
		{"vending", vending(), []*Term{
			NewConfig(NewOp("$"), NewOp("q"), NewOp("q"), NewOp("q")),
			NewConfig(NewOp("q"), NewOp("q"), NewOp("q"), NewOp("q"), NewOp("$")),
			NewConfig(NewOp("a"), NewOp("c")),
		}},
	}
	for _, s := range systems {
		comp := Compile(s.sys.Rules)
		for i := range s.sys.Rules {
			cr := comp.rules[i]
			if cr == nil {
				t.Fatalf("%s: rule %q did not compile", s.name, s.sys.Rules[i].Name)
			}
			for _, subj := range s.subj {
				m := comp.getScratch()
				got := renderTerms(cr.apply(subj, s.sys.Sig, m, nil))
				comp.putScratch(m)
				want := renderTerms(s.sys.Rules[i].apply(subj, s.sys.Sig, nil))
				if got != want {
					t.Errorf("%s/%s at %s: replacements diverge\ncompiled:\n%s\ninterpreter:\n%s",
						s.name, s.sys.Rules[i].Name, subj, got, want)
				}
			}
		}
	}
}

// normJournal zeroes the non-deterministic event fields (timestamp, worker
// attribution) and canonically sorts, so two journals compare as multisets.
func normJournal(evs []telemetry.Event) []telemetry.Event {
	out := append([]telemetry.Event(nil), evs...)
	for i := range out {
		out[i].T = 0
		out[i].Worker = 0
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Search != b.Search {
			return a.Search < b.Search
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		if a.Hash != b.Hash {
			return a.Hash < b.Hash
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.N < b.N
	})
	return out
}

// TestCompiledSearchDifferential is the engine-level pin: for every
// equivalence case, at Workers 1 and 4, a search with compiled matchers
// produces the reference search's verdict, witness, final state, state
// count and statistics, and the same flight-recorder journal at either
// worker count. On a fully compilable system no attempt falls back to the
// interpreter.
func TestCompiledSearchDifferential(t *testing.T) {
	for _, tc := range equivCases() {
		ref := refOf(t, tc)
		var journals []string
		for _, w := range []int{1, 4} {
			name := fmt.Sprintf("%s/workers=%d", tc.name, w)
			rec := telemetry.NewRecorder(0)
			opts := tc.opts
			opts.Workers = w
			opts.Recorder = rec
			res, err := tc.sys.Search(tc.init, tc.goal, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d := refDiff(res, ref); d != "" {
				t.Errorf("%s: %s", name, d)
			}
			if (res.Final == nil) != (ref.Final == nil) ||
				(res.Final != nil && !res.Final.Equal(ref.Final)) {
				t.Errorf("%s: final states diverge", name)
			}
			// counter()'s Op-rooted rule legitimately falls back.
			if Compile(tc.sys.Rules).CompiledCount() == len(tc.sys.Rules) {
				if res.Stats.CompiledRules == 0 {
					t.Errorf("%s: compiled run reports no compiled rules", name)
				}
				if res.Stats.FallbackMatches != 0 {
					t.Errorf("%s: compiled run fell back %d times on a fully compilable system",
						name, res.Stats.FallbackMatches)
				}
			}
			journals = append(journals, fmt.Sprint(normJournal(rec.Journal())))
		}
		if journals[0] != journals[1] {
			t.Errorf("%s: journals diverge between Workers 1 and 4", tc.name)
		}
	}
}

// TestCompiledBudgetCutDifferential pins where a budget cut lands on a
// fully compilable system: truncated mid-level, the compiled engine and
// the reference must stop after the same states, and with the full budget
// both must reach the goal by the same witness.
func TestCompiledBudgetCutDifferential(t *testing.T) {
	init := NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)), NewOp("c", NewInt(0)))
	goal := Goal{Pattern: NewConfig(NewOp("c", NewInt(6)), NewVar("Z", SortConfig))}
	for _, budget := range []int{10, 5000} {
		ref, err := referenceSearch(tokens(6), init, goal, refOptions{MaxStates: budget})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			name := fmt.Sprintf("budget=%d/workers=%d", budget, w)
			res, err := tokens(6).Search(init, goal, Options{Workers: w, MaxStates: budget})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cut := budget == 10; res.Truncated != cut || res.Found == cut {
				t.Errorf("%s: compiled run truncated=%v found=%v", name, res.Truncated, res.Found)
			}
			if d := refDiff(res, ref); d != "" {
				t.Errorf("%s: %s", name, d)
			}
		}
	}
}

// TestCompiledCounterAccounting is the unified-accounting regression test:
// CompiledMatches + FallbackMatches must equal the per-rule profile's total
// attempts, and adding RulesSkippedByIndex must recover the reference
// search's attempt count (it tries every rule at every position) — every
// candidate rule×position pair is accounted exactly once, whichever matcher
// handled it and whether the index skipped it.
//
// The system mixes compiled rules (tokens) with an interpreter-only
// var-rooted rule; the latter also defeats subtree pruning, so the
// comparison with the reference is exact.
func TestCompiledCounterAccounting(t *testing.T) {
	mixed := func() *System {
		s := tokens(3)
		s.Rules = append(s.Rules, Rule{
			Name:  "noop",
			LHS:   NewVar("X", SortInt),
			Build: func(b *Env) (*Term, bool) { return nil, false },
		})
		return s
	}
	init := NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)))
	goal := Goal{Pattern: NewOp("nope")}

	res, err := mixed().Search(init, goal, Options{Workers: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	fast := res.Stats
	ref, err := referenceSearch(mixed(), init, goal, refOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var attempts int64
	for _, rc := range fast.RuleProfile {
		attempts += rc.Attempts
	}
	if fast.CompiledMatches+fast.FallbackMatches != attempts {
		t.Errorf("compiled %d + fallback %d != profiled attempts %d",
			fast.CompiledMatches, fast.FallbackMatches, attempts)
	}
	if fast.CompiledMatches == 0 || fast.FallbackMatches == 0 {
		t.Errorf("mixed system should use both paths (compiled %d, fallback %d)",
			fast.CompiledMatches, fast.FallbackMatches)
	}
	if fast.CompiledRules != 2 {
		t.Errorf("%d rules compiled, want 2 (noop stays interpreted)", fast.CompiledRules)
	}
	if fast.SubtreesPruned != 0 {
		t.Fatalf("test premise broken: subtree pruning active (%d) — the comparison below needs none",
			fast.SubtreesPruned)
	}
	if res.StatesExplored != ref.StatesExplored {
		t.Fatalf("engine explored %d states, reference %d", res.StatesExplored, ref.StatesExplored)
	}
	fastTotal := fast.CompiledMatches + fast.FallbackMatches + fast.RulesSkippedByIndex
	if naiveTotal := ref.Stats.FallbackMatches; fastTotal != naiveTotal {
		t.Errorf("attempts + skips mismatch: indexed %d (+%d skipped) != reference %d",
			fast.CompiledMatches+fast.FallbackMatches, fast.RulesSkippedByIndex, naiveTotal)
	}
	if fast.RulesSkippedByIndex == 0 {
		t.Error("indexed run skipped nothing; the test would pass vacuously")
	}
}
