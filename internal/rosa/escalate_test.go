package rosa

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"privanalyzer/internal/faultinject"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/telemetry"
)

// Escalation supervisor tests: adaptive budgets must be verdict-transparent
// (BFS determinism makes a truncated attempt a prefix of the next), the
// legacy one-shot path must survive behind NoEscalate, and search faults must
// degrade a query to ⏱ without failing the caller.

// oneShot runs q with escalation off at the given budget cap.
func oneShot(t *testing.T, q *Query, budget int) *Result {
	t.Helper()
	q.NoEscalate = true
	q.MaxStates = budget
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEscalationVerdictTransparent: a tiny ladder (many attempts) resolves to
// the same verdict, witness, and state count as the legacy one-shot search.
func TestEscalationVerdictTransparent(t *testing.T) {
	cases := []struct {
		name  string
		query func() *Query
	}{
		{"vulnerable", workedExample},
		{"safe", func() *Query {
			q := workedExample()
			// Without chown the chain collapses (the Safe grid cell).
			q.Messages = q.Messages[:2]
			return q
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := oneShot(t, tc.query(), 0)
			q := tc.query()
			q.Escalate = rewrite.Escalation{Start: 2, Factor: 2}
			res, err := q.Run()
			if err != nil {
				t.Fatal(err)
			}
			if ref.StatesExplored > 2 && res.Attempts < 2 {
				t.Errorf("attempts = %d: a 2-state start must escalate past %d states",
					res.Attempts, ref.StatesExplored)
			}
			if res.Verdict != ref.Verdict || res.StatesExplored != ref.StatesExplored {
				t.Errorf("escalated (%s, %d states), one-shot (%s, %d states)",
					res.Verdict, res.StatesExplored, ref.Verdict, ref.StatesExplored)
			}
			if fmt.Sprint(res.Witness) != fmt.Sprint(ref.Witness) {
				t.Errorf("escalated witness diverged:\n%v\nvs\n%v", res.Witness, ref.Witness)
			}
		})
	}
}

// TestEscalationEventsOwnSearch: two escalating queries run concurrently on
// one Recorder, and every EvEscalated rung lands in a search of the query
// that escalated — exactly one rung on each of its truncated attempts, none
// on its final one — never in whichever search the other query began last.
func TestEscalationEventsOwnSearch(t *testing.T) {
	queries := []func() *Query{
		workedExample,
		func() *Query {
			// A different initial state whose goal is unreachable: the
			// search exhausts the whole space over several rungs.
			q := workedExample()
			q.Objects = append(q.Objects, User(11))
			q.Goal = GoalProcessTerminated(99)
			return q
		},
	}
	for round := 0; round < 25; round++ {
		rec := telemetry.NewRecorder(0)
		results := make([]*Result, len(queries))
		inits := make([]uint64, len(queries))
		var wg sync.WaitGroup
		for i, build := range queries {
			q := build()
			q.Workers = 1
			q.Recorder = rec
			q.Escalate = rewrite.Escalation{Start: 1, Factor: 2}
			inits[i] = q.InitialState().Hash()
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := q.Run()
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = res
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if rec.Dropped() != 0 {
			t.Fatalf("recorder dropped %d events", rec.Dropped())
		}

		// A search belongs to the query whose initial state it expands at
		// depth 0; every attempt, cached or not, records that expansion.
		owner := make(map[int32]int)
		rungs := make(map[int32]int)
		for _, ev := range rec.Journal() {
			switch {
			case ev.Kind == telemetry.EvStateExpanded && ev.Depth == 0:
				for i, h := range inits {
					if ev.Hash == h {
						owner[ev.Search] = i
					}
				}
			case ev.Kind == telemetry.EvEscalated:
				rungs[ev.Search]++
			}
		}
		for s := range rungs {
			if _, ok := owner[s]; !ok {
				t.Errorf("round %d: escalation stamped with search %d, which expanded neither query", round, s)
			}
		}
		for i, res := range results {
			var searches []int32
			for s, o := range owner {
				if o == i {
					searches = append(searches, s)
				}
			}
			sort.Slice(searches, func(a, b int) bool { return searches[a] < searches[b] })
			if len(searches) != res.Attempts || res.Attempts < 3 {
				t.Fatalf("round %d query %d: %d searches in the journal, %d attempts (want equal, at least 3)",
					round, i, len(searches), res.Attempts)
			}
			for k, s := range searches {
				want := 1
				if k == len(searches)-1 {
					want = 0
				}
				if rungs[s] != want {
					t.Errorf("round %d query %d: attempt %d (search %d) carries %d escalation events, want %d",
						round, i, k+1, s, rungs[s], want)
				}
			}
		}
	}
}

// TestEscalationDefaultOn: the zero-value query escalates (Attempts counted)
// and small queries resolve on the first rung.
func TestEscalationDefaultOn(t *testing.T) {
	res, err := workedExample().Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Vulnerable {
		t.Fatalf("verdict = %s, want ✓", res.Verdict)
	}
	// The worked example is far below DefaultEscalationStart states.
	if res.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (resolved on the first rung)", res.Attempts)
	}
}

// TestEscalationCapped: a ladder capped below the space yields ⏱ with the
// exact capped state count, after the expected number of rungs.
func TestEscalationCapped(t *testing.T) {
	q := workedExample()
	q.Escalate = rewrite.Escalation{Start: 2, Factor: 2, Max: 5}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Fatalf("verdict = %s at a 5-state cap, want ⏱ (states=%d)", res.Verdict, res.StatesExplored)
	}
	// Ladder 2 → 4 → 5: three attempts, and the budget contract is exact.
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (2→4→5)", res.Attempts)
	}
	if res.StatesExplored != 5 {
		t.Errorf("states = %d, want exactly the 5-state cap", res.StatesExplored)
	}
}

// TestNoEscalateOneShot: NoEscalate pins the legacy behaviour — one attempt
// at the full budget.
func TestNoEscalateOneShot(t *testing.T) {
	q := workedExample()
	q.NoEscalate = true
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d with NoEscalate, want 1", res.Attempts)
	}
	if res.Verdict != Vulnerable {
		t.Errorf("verdict = %s, want ✓", res.Verdict)
	}
}

// TestLegacyMaxStatesAlias: a caller that only sets MaxStates — the pre-
// escalation API — still gets an exact budget cap, byte-identical to the
// explicit one-shot search.
func TestLegacyMaxStatesAlias(t *testing.T) {
	ref := oneShot(t, workedExample(), 4)
	q := workedExample()
	q.MaxStates = 4 // legacy call site: budget only, escalation defaults
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d: a cap below the ladder start must collapse to one attempt", res.Attempts)
	}
	if res.Verdict != ref.Verdict || res.StatesExplored != ref.StatesExplored {
		t.Errorf("legacy MaxStates run (%s, %d states) diverged from one-shot (%s, %d states)",
			res.Verdict, res.StatesExplored, ref.Verdict, ref.StatesExplored)
	}
	if res.Verdict != Unknown || res.StatesExplored != 4 {
		t.Errorf("verdict %s after %d states, want ⏱ at exactly 4", res.Verdict, res.StatesExplored)
	}
}

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

// TestQueryMemBudgetDegraded: a starved memory budget degrades the query to
// ⏱ with Degraded set, and escalation does not retry into the same wall.
func TestQueryMemBudgetDegraded(t *testing.T) {
	q := workedExample()
	q.MemBudget = 1
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown || !res.Degraded {
		t.Errorf("verdict=%s degraded=%v, want ⏱ and degraded", res.Verdict, res.Degraded)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d: a degraded attempt must not escalate", res.Attempts)
	}
}
