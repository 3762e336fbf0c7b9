package rewrite_test

import (
	"testing"

	"privanalyzer/internal/attacks"
	"privanalyzer/internal/caps"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
)

// TestCompiledGoalCheckAllocs pins the per-state goal check at zero
// allocations: it runs once per explored state, and GoalFileInReadSet's
// guard reads only the read set, so neither the remainder nor a binding
// map may be built. The states are suRef's attack-1 query — its initial
// state and every successor — where the goal does not hold.
func TestCompiledGoalCheckAllocs(t *testing.T) {
	if rewrite.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	p, err := programs.ByName("suRef")
	if err != nil {
		t.Fatal(err)
	}
	q := attacks.Build(attacks.ReadDevMem, p.Syscalls(),
		rosa.UniformCreds(attacks.UserUID, attacks.UserUID), caps.Set(0))
	sys := rosa.NewSystem()
	init := rewrite.Intern(q.InitialState())
	steps, err := sys.Successors(init)
	if err != nil {
		t.Fatal(err)
	}
	states := []*rewrite.Term{init}
	for _, st := range steps {
		states = append(states, st.Result)
	}
	if len(states) < 2 {
		t.Fatalf("suRef attack-1 initial state has no successors")
	}
	check := rewrite.GoalCheck(sys, q.Goal, rewrite.Options{})
	slow := rewrite.GoalCheck(sys, q.Goal, rewrite.Options{NoCompile: true})
	for _, s := range states {
		if check(s) || slow(s) {
			t.Fatalf("goal holds on %s; the pin wants states where the full check runs", s)
		}
		if got := testing.AllocsPerRun(100, func() { check(s) }); got != 0 {
			t.Errorf("compiled goal check: %.1f allocs/op on a %d-element state, want 0", got, len(s.Args))
		}
	}
}
