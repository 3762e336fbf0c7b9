package rewrite

import (
	"sort"
	"strings"
	"testing"
)

// envModes are the two matchers every Env callback must see identically:
// the engine's compiled matcher (lazy remainder, slot array) and the
// reference search's generic one (remainder bound eagerly, Env filled from
// a Binding). Each mode supplies its successor walk and its goal check.
var envModes = []struct {
	name  string
	succ  func(sys *System, state *Term) ([]Step, error)
	holds func(sys *System, goal Goal, state *Term) bool
}{
	{"compiled",
		func(sys *System, state *Term) ([]Step, error) { return sys.Successors(state) },
		func(sys *System, goal Goal, state *Term) bool {
			e, err := sys.engine(nil)
			if err != nil {
				panic(err)
			}
			check, err := e.goalChecker(goal)
			if err != nil {
				panic(err)
			}
			return check(Intern(state))
		}},
	{"interpreted",
		func(sys *System, state *Term) ([]Step, error) {
			steps, _ := referenceSuccessors(sys, ruleLayouts(sys), state)
			return steps, nil
		},
		func(sys *System, goal Goal, state *Term) bool { return goal.matches(state, sys.Sig, nil) }},
}

// TestEnvRestIsRemainder: a rule body and a goal Cond that read the rest
// get exactly the elements the fixed pattern elements did not consume,
// through Rest, Get and At alike, and Replace builds the remainder plus
// the new elements.
func TestEnvRestIsRemainder(t *testing.T) {
	lhs := NewConfig(NewOp("c", NewVar("N", SortInt)), NewVar("Z", SortConfig))
	zSlot := SlotsOf(lhs)["Z"]
	state := NewConfig(NewOp("c", NewInt(1)), NewOp("c", NewInt(2)), NewOp("k", NewInt(3)))
	// For each c(N) the rule can consume, the canonical rest it must see.
	want := map[int64]string{
		1: NewConfig(NewOp("c", NewInt(2)), NewOp("k", NewInt(3))).String(),
		2: NewConfig(NewOp("c", NewInt(1)), NewOp("k", NewInt(3))).String(),
	}
	var seen []string
	record := func(e *Env) {
		n, _ := e.Int("N")
		rest, byName, bySlot := e.Rest(), e.Get("Z"), e.At(zSlot)
		if rest.String() != want[n] || byName.String() != want[n] || bySlot.String() != want[n] {
			t.Errorf("c(%d): Rest %s, Get %s, At %s; want %s", n, rest, byName, bySlot, want[n])
		}
		seen = append(seen, rest.String())
	}
	sys := &System{Rules: []Rule{{
		Name: "d",
		LHS:  lhs,
		BuildAll: func(e *Env) []*Term {
			record(e)
			n, _ := e.Int("N")
			got := e.Replace(NewOp("d", NewInt(n)))
			if exp := Intern(NewConfig(NewOp("d", NewInt(n)), e.Rest())); got != exp {
				t.Errorf("c(%d): Replace = %s, want %s", n, got, exp)
			}
			return []*Term{got}
		},
	}}}
	goal := Goal{Pattern: lhs, Cond: func(e *Env) bool { record(e); return false }}
	for _, m := range envModes {
		seen = nil
		steps, err := m.succ(sys, state)
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) != 2 {
			t.Errorf("%s: %d successors, want 2", m.name, len(steps))
		}
		if m.holds(sys, goal, state) {
			t.Errorf("%s: goal whose Cond is false reported a match", m.name)
		}
		sort.Strings(seen)
		exp := []string{want[1], want[1], want[2], want[2]}
		sort.Strings(exp)
		if strings.Join(seen, "|") != strings.Join(exp, "|") {
			t.Errorf("%s: callbacks saw rests %q, want %q", m.name, seen, exp)
		}
	}
}

// TestEnvNonLinearRest: when a fixed element also binds the remainder
// variable, a lazy remainder must not skip the check — the pattern matches
// only where the unmatched elements equal that binding.
func TestEnvNonLinearRest(t *testing.T) {
	z := NewVar("Z", SortConfig)
	lhs := NewConfig(NewOp("f", z), z)
	if _, err := Compile([]Rule{{LHS: lhs}}); err != nil {
		t.Fatalf("non-linear remainder pattern left the compiled fragment: %v", err)
	}
	a, b, c := NewOp("a"), NewOp("b"), NewOp("c")
	cases := []struct {
		state *Term
		match bool
		rest  *Term // the remainder the rule sees when it matches
	}{
		{NewConfig(NewOp("f", NewConfig(a, b)), b, a), true, NewConfig(a, b)},
		{NewConfig(NewOp("f", NewConfig(a, b)), a, c), false, nil},
		{NewConfig(NewOp("f", NewConfig(a, b)), a), false, nil},
		{NewConfig(NewOp("f", NewConfig())), true, NewConfig()},
	}
	var rests []*Term
	sys := &System{Rules: []Rule{{
		Name: "g",
		LHS:  lhs,
		BuildAll: func(e *Env) []*Term {
			rests = append(rests, e.Rest())
			return []*Term{e.Replace(NewOp("g"))}
		},
	}}}
	goal := Goal{Pattern: lhs, Cond: func(e *Env) bool { return e.Rest() != nil }}
	for _, m := range envModes {
		for _, tc := range cases {
			rests = nil
			steps, err := m.succ(sys, tc.state)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(steps) == 1; got != tc.match {
				t.Errorf("%s: rule on %s: fired=%v, want %v", m.name, tc.state, got, tc.match)
			}
			if tc.match {
				if want := tc.rest; len(rests) != 1 || !rests[0].Equal(want) {
					t.Errorf("%s: rule on %s saw rest %v, want %s", m.name, tc.state, rests, want)
				}
				if want := Intern(NewConfig(NewOp("g"), tc.rest)); steps[0].Result != want {
					t.Errorf("%s: successor %s, want %s", m.name, steps[0].Result, want)
				}
			}
			if got := m.holds(sys, goal, tc.state); got != tc.match {
				t.Errorf("%s: goal on %s = %v, want %v", m.name, tc.state, got, tc.match)
			}
		}
	}
}
