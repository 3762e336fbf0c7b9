package rosa

import (
	"context"
	"reflect"
	"testing"
	"time"

	"privanalyzer/internal/rewrite"
)

// TestRunContextCancelledYieldsUnknown: a cancelled context maps to the ⏱
// verdict — indistinguishable, by design, from exceeding the state budget.
func TestRunContextCancelledYieldsUnknown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := workedExample().RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Errorf("verdict = %s, want ⏱ for a cancelled context", res.Verdict)
	}
}

// TestRunContextDeadlinePrompt: the deadline stops the search and returns
// within the acceptance criterion's 100ms.
func TestRunContextDeadlinePrompt(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass

	begun := time.Now()
	res, err := workedExample().RunContext(ctx)
	took := time.Since(begun)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Errorf("verdict = %s, want ⏱", res.Verdict)
	}
	if took > 100*time.Millisecond {
		t.Errorf("RunContext took %v after its deadline, want under 100ms", took)
	}
}

// TestRunExtendedContextCancelled: an Extended query under a cancelled
// context gets ⏱ from RunContext too.
func TestRunExtendedContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := workedExample()
	q.Extended = true
	res, err := q.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Errorf("verdict = %s, want ⏱", res.Verdict)
	}
}

// TestResultCarriesStats: every run attaches the engine's statistics.
func TestResultCarriesStats(t *testing.T) {
	res, err := workedExample().Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("result has no Stats")
	}
	if res.Stats.StatesExplored != res.StatesExplored {
		t.Errorf("stats states %d != result states %d",
			res.Stats.StatesExplored, res.StatesExplored)
	}
	if len(res.Stats.RuleFirings) == 0 {
		t.Error("no rule firings recorded")
	}
}

// TestQueryWorkersEquivalence: the promoted Workers knob is ignored; it
// changes nothing observable about a query's outcome or its statistics.
func TestQueryWorkersEquivalence(t *testing.T) {
	ref, err := workedExample().Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		q := workedExample()
		q.Workers = w
		res, err := q.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != ref.Verdict || res.StatesExplored != ref.StatesExplored ||
			len(res.Witness) != len(ref.Witness) {
			t.Errorf("workers=%d: (%s, %d states, %d-step witness), want (%s, %d, %d)",
				w, res.Verdict, res.StatesExplored, len(res.Witness),
				ref.Verdict, ref.StatesExplored, len(ref.Witness))
		}
		got, want := res.Stats.Clone(), ref.Stats.Clone()
		got.Elapsed, want.Elapsed = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: stats\n%+v\nwant\n%+v", w, got, want)
		}
	}
}

// TestNewQueryDefaults: the constructor produces the default configuration,
// and the zero Options literal means the same thing.
func TestNewQueryDefaults(t *testing.T) {
	q := NewQuery(nil, nil, rewrite.Goal{})
	if q.MaxStates != 0 || q.MaxDepth != 0 || q.Workers != 0 {
		t.Errorf("NewQuery options = %+v, want the zero (default) configuration", q.Options)
	}
}
