package rewrite

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// renderBindings renders a binding list order-sensitively: one braced line
// per binding, variables sorted by name within each, so an empty binding
// still counts. Two matchers agree exactly
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
		lines[i] = "{" + strings.Join(parts, " ") + "}"
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
// get specialized matchers and which Compile rejects, naming the rule.
func TestCompileFragment(t *testing.T) {
	for _, sys := range []*System{tokens(4), vending(), counter()} {
		if _, err := Compile(sys.Rules); err != nil {
			t.Error(err)
		}
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
		_, err := Compile([]Rule{{Name: tc.name, LHS: tc.lhs}})
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.name)) {
			t.Errorf("%s: Compile error %v, want a rejection naming the rule", tc.name, err)
		}
	}
	// A Configuration-sorted variable nested inside an element is a normal
	// first-order binding, not a rest variable — it stays in the fragment.
	in := Rule{Name: "nested-config-var", LHS: NewConfig(NewOp("f", NewVar("C", SortConfig)))}
	if _, err := compileRule(&in); err != nil {
		t.Errorf("config-sorted var inside an element should compile: %v", err)
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
		comp, err := Compile([]Rule{c.rule})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cr := comp.rules[0]
		m := comp.getScratch()
		got := renderBindings(cr.matchCompiled(c.subj, nil, m))
		comp.putScratch(m)
		want := renderBindings(Match(c.rule.LHS, c.subj, nil))
		if got != want {
			t.Errorf("%s: compiled bindings diverge from Match\ncompiled:\n%s\ninterpreter:\n%s", c.name, got, want)
		}
	}
}

// dedupTerms keeps the first occurrence of each structurally distinct term,
// in order: expand's duplicate filter.
func dedupTerms(ts []*Term) []*Term {
	seen := make(map[*Term]bool, len(ts))
	var out []*Term
	for _, t := range ts {
		if it := Intern(t); !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	return out
}

// TestCompiledApplyEquivalence compares the full apply path — matching plus
// guard evaluation plus replacement construction — between the compiled
// matcher and Rule.apply, over rules with and without a Cond, and with
// BuildAll vetoes. No two elements of these NewConfig subjects share a
// pointer (their repeats are separate NewOp terms), so the raw lists must
// agree. On the interned subject repeated elements are
// one pointer, which apply tries once, so the lists must agree after
// expand's duplicate filter, and the skip must have fired somewhere.
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
	skipped := 0
	for _, s := range systems {
		comp, err := Compile(s.sys.Rules)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for i := range s.sys.Rules {
			cr := comp.rules[i]
			for _, subj := range s.subj {
				m := comp.getScratch()
				got := renderTerms(cr.apply(subj, s.sys.Sig, m, nil))
				comp.putScratch(m)
				want := renderTerms(s.sys.Rules[i].apply(subj, s.sys.Sig, nil))
				if got != want {
					t.Errorf("%s/%s at %s: replacements diverge\ncompiled:\n%s\ninterpreter:\n%s",
						s.name, s.sys.Rules[i].Name, subj, got, want)
				}

				is := Intern(subj)
				m = comp.getScratch()
				gotRaw := cr.apply(is, s.sys.Sig, m, nil)
				comp.putScratch(m)
				wantRaw := s.sys.Rules[i].apply(is, s.sys.Sig, nil)
				skipped += len(wantRaw) - len(gotRaw)
				got, want = renderTerms(dedupTerms(gotRaw)), renderTerms(dedupTerms(wantRaw))
				if got != want {
					t.Errorf("%s/%s at interned %s: deduplicated replacements diverge\ncompiled:\n%s\ninterpreter:\n%s",
						s.name, s.sys.Rules[i].Name, is, got, want)
				}
			}
		}
	}
	if skipped <= 0 {
		t.Errorf("compiled apply built %d fewer replacements than the generic matcher on interned subjects, want > 0", skipped)
	}
}

// TestCompiledSearchDifferential is the engine-level pin: for every
// equivalence case, at Workers 1 and 4 (a setting the engine ignores), a
// search with compiled matchers produces the reference search's verdict,
// witness, final state, state count and statistics. Every rule compiles
// and no attempt is counted as a fallback.
func TestCompiledSearchDifferential(t *testing.T) {
	for _, tc := range equivCases() {
		ref := refOf(t, tc)
		for _, w := range []int{1, 4} {
			name := fmt.Sprintf("%s/workers=%d", tc.name, w)
			opts := tc.opts
			opts.Workers = w
			res, err := tc.sys.SearchContext(context.Background(), tc.init, tc.goal, opts)
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
			if res.Stats.CompiledRules != len(tc.sys.Rules) {
				t.Errorf("%s: %d of %d rules compiled", name, res.Stats.CompiledRules, len(tc.sys.Rules))
			}
			if res.Stats.FallbackMatches != 0 {
				t.Errorf("%s: %d fallback matches, want 0", name, res.Stats.FallbackMatches)
			}
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
			res, err := tokens(6).SearchContext(context.Background(), init, goal, Options{Workers: w, MaxStates: budget})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cut := budget == 10; res.Truncated != cut || res.Found == cut {
				t.Errorf("%s: compiled run truncated=%v found=%v", name, res.Truncated, res.Found)
			}
			if d := refDiff(res, ref.SearchResult); d != "" {
				t.Errorf("%s: %s", name, d)
			}
		}
	}
}

// TestCompiledCounterAccounting is the unified-accounting regression test:
// CompiledMatches must equal the per-rule profile's total attempts,
// FallbackMatches must stay 0, and adding RulesSkippedByIndex must recover
// the reference search's root-position attempt count (it tries every rule
// at the root of every state it expands) — every rule considered at an
// expanded state is accounted exactly once, whether the index skipped it
// or a compiled matcher tried it.
func TestCompiledCounterAccounting(t *testing.T) {
	init := NewConfig(NewOp("$"), NewOp("$"), NewOp("q"), NewOp("q"), NewOp("q"))
	goal := Goal{Pattern: NewConfig(NewOp("nope"), NewVar("Z", SortConfig))}

	res, err := vending().SearchContext(context.Background(), init, goal, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	fast := res.Stats
	ref, err := referenceSearch(vending(), init, goal, refOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var attempts int64
	for _, rc := range fast.RuleProfile {
		attempts += rc.Attempts
	}
	if fast.CompiledMatches != attempts {
		t.Errorf("compiled %d != profiled attempts %d", fast.CompiledMatches, attempts)
	}
	if fast.FallbackMatches != 0 {
		t.Errorf("%d fallback matches, want 0", fast.FallbackMatches)
	}
	if fast.CompiledRules != 3 {
		t.Errorf("%d rules compiled, want 3", fast.CompiledRules)
	}
	if res.StatesExplored != ref.StatesExplored {
		t.Fatalf("engine explored %d states, reference %d", res.StatesExplored, ref.StatesExplored)
	}
	if fastTotal := fast.CompiledMatches + fast.RulesSkippedByIndex; fastTotal != ref.RootAttempts {
		t.Errorf("attempts + skips mismatch: indexed %d (+%d skipped) != reference %d",
			fast.CompiledMatches, fast.RulesSkippedByIndex, ref.RootAttempts)
	}
	if fast.RulesSkippedByIndex == 0 {
		t.Error("indexed run skipped nothing; the test would pass vacuously")
	}
}

// TestOutOfFragmentRulesRejected: a System holding a rule outside the
// compiled fragment — one of each shape — cannot search, expand or
// rewrite. Search, Successors and Rewrite each return an error naming the
// rule before any state is explored: no rule or goal callback runs, and no
// progress snapshot fires. A goal outside the fragment is rejected the same
// way by Search, with an error naming the goal.
func TestOutOfFragmentRulesRejected(t *testing.T) {
	n := NewVar("N", SortInt)
	z := NewVar("Z", SortConfig)
	shapes := []struct {
		Rule
		goal bool // the shape is the search goal's pattern, not a rule
	}{
		{Rule: Rule{Name: "op-rooted", LHS: NewOp("c", n)}},
		{Rule: Rule{Name: "variable-rooted", LHS: NewVar("X", "")}},
		{Rule: Rule{Name: "two-rest-variables", LHS: NewConfig(NewOp("c", n), z, NewVar("Y", SortConfig))}},
		{Rule: Rule{Name: "nested-configuration", LHS: NewConfig(NewOp("box", NewConfig(NewOp("c", n))), z)}},
		{Rule: Rule{Name: "op-rooted-goal", LHS: NewOp("nope")}, goal: true},
	}
	init := NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)))
	for _, bad := range shapes {
		t.Run(bad.Name, func(t *testing.T) {
			calls := 0
			count := func(*Env) bool { calls++; return true }
			sys := tokens(4)
			for i := range sys.Rules {
				sys.Rules[i].Cond = count
			}
			goal := Goal{Pattern: NewConfig(NewVar("S", SortConfig)), Cond: count}
			named := strconv.Quote(bad.Name)
			if bad.goal {
				goal.Pattern = bad.LHS
				named = "goal " + bad.LHS.String()
			} else {
				bad.Cond = count
				sys.Rules = append(sys.Rules, bad.Rule)
			}
			rejected := func(op string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), named) {
					t.Errorf("%s: error %v, want one naming %s", op, err, named)
				}
			}

			snapshots := 0
			res, err := sys.SearchContext(context.Background(), init, goal,
				Options{OnStats: func(*SearchStats) { snapshots++ }})
			rejected("Search", err)
			if res != nil {
				t.Errorf("Search returned a result (%d states) alongside the error", res.StatesExplored)
			}
			if snapshots != 0 {
				t.Errorf("Search reported progress: %d snapshots", snapshots)
			}
			if bad.goal {
				// The rules compile: Successors and Rewrite need no goal.
				if calls != 0 {
					t.Errorf("%d rule or goal callbacks ran", calls)
				}
				return
			}
			steps, err := sys.Successors(init)
			rejected("Successors", err)
			if len(steps) != 0 {
				t.Errorf("Successors returned %d steps alongside the error", len(steps))
			}
			final, trace, _, err := sys.Rewrite(init, 10)
			rejected("Rewrite", err)
			if final != nil || len(trace) != 0 {
				t.Errorf("Rewrite returned %v after %d steps alongside the error", final, len(trace))
			}
			if calls != 0 {
				t.Errorf("%d rule or goal callbacks ran", calls)
			}
		})
	}
}
