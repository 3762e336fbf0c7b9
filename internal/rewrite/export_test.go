package rewrite

// Hooks for the external test package (rewrite_test), whose tests drive
// the engine with the ROSA theory — a package that itself imports rewrite.

// RaceEnabled reports whether the test binary runs under the race detector.
const RaceEnabled = raceEnabled

// GoalCheck returns the per-state goal predicate a search on sys runs
// (engine.goalChecker).
func GoalCheck(sys *System, goal Goal) func(*Term) bool {
	e, err := sys.engine(nil)
	if err != nil {
		panic(err)
	}
	check, err := e.goalChecker(goal)
	if err != nil {
		panic(err)
	}
	return check
}

// ReferenceGoal reports whether state satisfies goal by the reference
// search's check: the generic matcher, no compiled early exit.
func ReferenceGoal(sys *System, goal Goal, state *Term) bool {
	return goal.matches(state, sys.Sig, nil)
}

// RefOptions are the reference search's knobs (reference_test.go).
type RefOptions = refOptions

// RefResult is the reference search's outcome (reference_test.go).
type RefResult = refResult

// ReferenceSearch runs the test-only reference search, the oracle the
// engine is compared against.
func ReferenceSearch(sys *System, init *Term, goal Goal, o RefOptions) (*RefResult, error) {
	return referenceSearch(sys, init, goal, o)
}
