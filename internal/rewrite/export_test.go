package rewrite

// Hooks for the external test package (rewrite_test), whose tests drive
// the engine with the ROSA theory — a package that itself imports rewrite.

// RaceEnabled reports whether the test binary runs under the race detector.
const RaceEnabled = raceEnabled

// GoalCheck returns the per-state goal predicate a search on sys under opts
// runs (engine.goalChecker).
func GoalCheck(sys *System, goal Goal, opts Options) func(*Term) bool {
	return sys.engine(opts, nil).goalChecker(goal)
}
