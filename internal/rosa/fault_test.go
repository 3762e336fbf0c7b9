package rosa

import (
	"errors"
	"testing"

	"privanalyzer/internal/faultinject"
	"privanalyzer/internal/rewrite"
)

// Fault-isolation tests: a search fault degrades a query to ⏱ without
// failing the caller.

// TestQueryFaultIsolated pins the rosa fault contract: an injected worker
// panic yields (Result{Verdict: ⏱, Err: *SearchError}, nil) — the grid keeps
// running, the fault is recorded, partial stats survive.
func TestQueryFaultIsolated(t *testing.T) {
	q := workedExample()
	q.Faults = &faultinject.Plan{PanicAtExpansion: 1}
	res, err := q.Run()
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

// TestQueryInjectedCancelIsolated: the injected mid-level cancellation maps
// to ⏱ with ErrInjectedCancel recorded, like any other fault.
func TestQueryInjectedCancelIsolated(t *testing.T) {
	q := workedExample()
	q.Faults = &faultinject.Plan{CancelAtLevel: 1}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Errorf("verdict = %s, want ⏱", res.Verdict)
	}
	if !errors.Is(res.Err, faultinject.ErrInjectedCancel) {
		t.Errorf("Result.Err = %v, want ErrInjectedCancel", res.Err)
	}
}
