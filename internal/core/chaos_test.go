package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"privanalyzer/internal/programs"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
)

// poisonedChecker returns a Checker like rosa.NewChecker's whose base and
// extended systems carry one more rule, "poison", that matches every state
// and never fires. Its Cond runs once per successor expansion (a transition
// cache hit runs none), counts the calls in calls, and panics on the nth,
// counted across both systems; n = 0 never panics.
func poisonedChecker(n int64, calls *atomic.Int64) *rosa.Checker {
	poison := rewrite.Rule{
		Name: "poison",
		LHS:  rewrite.NewConfig(rewrite.NewVar("POISON", rewrite.SortConfig)),
		Cond: func(*rewrite.Env) bool {
			if c := calls.Add(1); c == n {
				panic(fmt.Sprintf("poisoned rule at expansion %d", c))
			}
			return false
		},
	}
	base, ext := rosa.NewSystem(), rosa.NewExtendedSystem()
	base.Rules = append(base.Rules, poison)
	ext.Rules = append(ext.Rules, poison)
	base.Cache, ext.Cache = rewrite.NewTransitionCache(), rewrite.NewTransitionCache()
	return rosa.NewCheckerOver(base, ext)
}

// TestAnalyzeFaultIsolation is the pipeline-level chaos invariant: a panic
// inside one ROSA query costs at most that query its verdict (⏱, recorded
// in Analysis.Errors with grid coordinates) and nothing else — the analysis
// completes without error and every fault-free cell's verdict is identical
// to the clean run's.
//
// The fault is counter-keyed, and a clean run with the same poisoned
// checker counts the expansions the grid performs, so the chosen expansion
// always happens and the fault always surfaces, once. Sequentially
// (AnalyzeContext) it lands on an exact, replayable position; across
// AnalyzeAll's concurrent columns, which share the checker and its counter,
// the column it lands in follows the schedule.
func TestAnalyzeFaultIsolation(t *testing.T) {
	p, err := programs.ByName("su")
	if err != nil {
		t.Fatal(err)
	}
	concurrent := func(opts Options) (*Analysis, error) {
		all, err := AnalyzeAll(context.Background(), []string{p.Name}, opts)
		if err != nil {
			return nil, err
		}
		return all[0], nil
	}
	cases := []struct {
		name    string
		analyze func(Options) (*Analysis, error)
	}{
		{"sequential", func(opts Options) (*Analysis, error) { return Analyze(p, opts) }},
		{"parallel", concurrent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var expansions atomic.Int64
			ref, err := tc.analyze(Options{Checker: poisonedChecker(0, &expansions)})
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Errors) != 0 {
				t.Fatalf("the clean run recorded faults: %v", ref.Errors)
			}
			// Fault an expansion five sixths of the way through the grid, so
			// it lands inside one of the later, larger searches.
			total := expansions.Load()
			if total < 6 {
				t.Fatalf("su's query grid performed %d expansions; too few to place a fault", total)
			}

			t.Logf("su's query grid performs %d expansions; faulting expansion %d", total, total*5/6)
			a, err := tc.analyze(Options{Checker: poisonedChecker(total*5/6, new(atomic.Int64))})
			if err != nil {
				t.Fatalf("a query fault must not fail the analysis: %v", err)
			}
			if len(a.Errors) != 1 {
				t.Fatalf("%d query faults recorded from a fire-once rule, want exactly 1: %v", len(a.Errors), a.Errors)
			}
			var serr *rewrite.SearchError
			if !errors.As(a.Errors[0], &serr) {
				t.Fatalf("aggregated fault %v (%T) does not unwrap to *rewrite.SearchError",
					a.Errors[0], a.Errors[0].Err)
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
