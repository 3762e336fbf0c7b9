package core

import (
	"errors"
	"testing"

	"privanalyzer/internal/faultinject"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
)

// TestAnalyzeFaultIsolation is the pipeline-level chaos invariant: a worker
// panic inside one ROSA query costs at most that query its verdict (⏱,
// recorded in Analysis.Errors with grid coordinates) and nothing else — the
// analysis completes without error and every fault-free cell's verdict is
// identical to the clean run's.
//
// The fault is counter-keyed, so where it lands depends on the schedule:
// sequentially (Parallel off, Workers 1) the 100th expansion is an exact,
// replayable position and the fault MUST surface; under parallelism the
// deterministic merge may discard it (a speculative expansion past a goal
// match that the one-worker run would never have performed), so the
// invariant there is isolation, not occurrence.
func TestAnalyzeFaultIsolation(t *testing.T) {
	// su's sequential query grid performs ~119 successor expansions, so the
	// 100th lands inside one of the later, larger searches.
	p, err := programs.ByName("su")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		opts      Options
		mustFault bool
	}{
		{"sequential", Options{Search: rewrite.Options{Workers: 1}}, true},
		{"parallel", Options{Parallel: true, Search: rewrite.Options{Workers: 4}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := Analyze(p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}

			// The plan's expansion counter spans the whole query fan-out, so
			// at most one query observes the 100th expansion and panics.
			opts := tc.opts
			opts.Search.Faults = &faultinject.Plan{PanicAtExpansion: 100}
			a, err := Analyze(p, opts)
			if err != nil {
				t.Fatalf("a query fault must not fail the analysis: %v", err)
			}
			if len(a.Errors) > 1 {
				t.Fatalf("%d query faults recorded from a fire-once plan: %v", len(a.Errors), a.Errors)
			}
			if tc.mustFault && len(a.Errors) != 1 {
				t.Fatalf("sequential run recorded %d faults, want exactly 1", len(a.Errors))
			}
			if len(a.Errors) == 1 {
				var serr *rewrite.SearchError
				if !errors.As(a.Errors[0], &serr) {
					t.Fatalf("aggregated fault %v (%T) does not unwrap to *rewrite.SearchError",
						a.Errors[0], a.Errors[0].Err)
				}
			}

			// Walk the grid: a faulted cell reads ⏱ and is attributed in
			// Errors; every other cell matches the clean run.
			faulted := 0
			for i, pr := range a.Phases {
				for j := range pr.Verdicts {
					if pr.Errs[j] != nil {
						faulted++
						if pr.Verdicts[j] != rosa.Unknown {
							t.Errorf("faulted cell %s/%d verdict = %s, want ⏱",
								pr.Spec.Name, j+1, pr.Verdicts[j])
						}
						if a.Errors[0].Phase != pr.Spec.Name {
							t.Errorf("Errors[0] names phase %q, faulted cell is %q",
								a.Errors[0].Phase, pr.Spec.Name)
						}
						continue
					}
					if pr.Verdicts[j] != ref.Phases[i].Verdicts[j] {
						t.Errorf("fault-free cell %s/%d verdict = %s, clean run says %s",
							pr.Spec.Name, j+1, pr.Verdicts[j], ref.Phases[i].Verdicts[j])
					}
				}
			}
			if faulted != len(a.Errors) {
				t.Errorf("%d cells carry an error, Analysis.Errors has %d", faulted, len(a.Errors))
			}
		})
	}
}

// TestAnalyzeBudgetCap: a tiny Search.MaxStates budget caps every query,
// the cap manifests as ⏱ (never a recorded fault), and no verdict flips —
// exhausting the budget may only degrade a verdict to Unknown.
func TestAnalyzeBudgetCap(t *testing.T) {
	p, err := programs.ByName("passwd")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}

	capped0, err := Analyze(p, Options{Search: rewrite.Options{MaxStates: 2}})
	if err != nil {
		t.Fatal(err)
	}
	capped := 0
	for i, pr := range capped0.Phases {
		for j, v := range pr.Verdicts {
			if v != ref.Phases[i].Verdicts[j] {
				if v != rosa.Unknown {
					t.Errorf("%s/%d: budget changed the verdict to %s, a cap may only yield ⏱",
						pr.Spec.Name, j+1, v)
				}
				capped++
			}
		}
	}
	if capped == 0 {
		t.Error("a 2-state budget truncated nothing — the cap was not exercised")
	}
	if len(capped0.Errors) != 0 {
		t.Errorf("budget exhaustion recorded %d faults, want 0 (⏱ is not a fault)", len(capped0.Errors))
	}
}
