package rosa

import (
	"context"
	"errors"
	"testing"

	"privanalyzer/internal/rewrite"
)

// Fault-isolation tests: a search fault degrades a query to ⏱ without
// failing the caller.

// TestQueryFaultIsolated pins the rosa fault contract: a rule that panics
// mid-search yields (Result{Verdict: ⏱, Err: *SearchError}, nil) — the grid
// keeps running, the fault is recorded, partial stats survive.
func TestQueryFaultIsolated(t *testing.T) {
	poisoned := NewSystem()
	poisoned.Rules = append(poisoned.Rules, rewrite.Rule{
		Name: "poison",
		LHS:  rewrite.NewConfig(zvar()),
		Cond: func(*rewrite.Env) bool { panic("poisoned rule") },
	})
	res, err := NewCheckerOver(poisoned, NewExtendedSystem()).Run(context.Background(), workedExample())
	if err != nil {
		t.Fatalf("a search fault must not surface as a query error: %v", err)
	}
	if res.Verdict != Unknown {
		t.Errorf("verdict = %s, want ⏱", res.Verdict)
	}
	var serr *rewrite.SearchError
	if !errors.As(res.Err, &serr) {
		t.Fatalf("Result.Err = %v (%T), want a *rewrite.SearchError", res.Err, res.Err)
	}
	if serr.Panic == nil {
		t.Error("SearchError lost the recovered panic value")
	}
}

// TestQueryInjectedCancelIsolated: a caller that cancels its context
// mid-search gets ⏱ with Interrupted set and no fault recorded — a
// cancellation is a clean outcome, not an error.
func TestQueryInjectedCancelIsolated(t *testing.T) {
	q := workedExample()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel once level 0 is done: the search stops before level 1.
	q.OnStats = func(st *rewrite.SearchStats) {
		if len(st.Frontier) == 1 {
			cancel()
		}
	}
	res, err := q.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Errorf("verdict = %s, want ⏱", res.Verdict)
	}
	if !res.Interrupted {
		t.Error("cancelled query not marked Interrupted")
	}
	if res.Err != nil {
		t.Errorf("Result.Err = %v, want nil: a cancellation is no fault", res.Err)
	}
}
