package rewrite

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"privanalyzer/internal/faultinject"
)

// Chaos suite: every single injected fault must leave the process alive, the
// faulted search with a partial result and a typed *SearchError, and — the
// standing invariant — fault-free behaviour byte-identical at any Workers
// setting, which the engine ignores. Fault points are deterministic
// (internal/faultinject), so each case replays exactly.

// tokensInit3 is the branching chaos workload: three tokens counting to 6.
func tokensInit3() *Term {
	return NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)), NewOp("c", NewInt(0)))
}

// TestPanicIsolation: a panic mid-expansion surfaces as a *SearchError
// carrying the panic value, the state, and partial stats — never as a crashed
// test process.
func TestPanicIsolation(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			plan := &faultinject.Plan{PanicAtExpansion: 3}
			res, err := counter().SearchContext(context.Background(),
				cnt(0), Goal{Pattern: cnt(-1)},
				Options{Workers: w, Faults: plan})
			if err == nil {
				t.Fatal("injected panic produced no error")
			}
			var serr *SearchError
			if !errors.As(err, &serr) {
				t.Fatalf("error %T is not a *SearchError: %v", err, err)
			}
			pv, ok := serr.Panic.(faultinject.PanicValue)
			if !ok {
				t.Fatalf("SearchError.Panic = %#v, want a faultinject.PanicValue", serr.Panic)
			}
			if pv.Expansion != 3 {
				t.Errorf("panic fired at expansion %d, want 3", pv.Expansion)
			}
			if serr.StateHash == 0 || serr.StateHash != pv.StateHash {
				t.Errorf("SearchError state %#x, panic value state %#x: want equal and non-zero",
					serr.StateHash, pv.StateHash)
			}
			if len(serr.Stack) == 0 {
				t.Error("SearchError carries no stack trace")
			}
			if res == nil {
				t.Fatal("no partial result alongside the SearchError")
			}
			if !res.Interrupted {
				t.Error("partial result not marked Interrupted — could be read as Safe")
			}
			if res.Stats == nil || res.StatesExplored < 1 {
				t.Errorf("partial result lost its stats (states=%d)", res.StatesExplored)
			}
		})
	}
}

// TestPanicOnStateParallelDeterminism: a state-keyed panic names the same
// state in the SearchError at every Workers setting, because deduplication
// expands each state at most once.
func TestPanicOnStateParallelDeterminism(t *testing.T) {
	// {c(1) c(0) c(0)} is generated at depth 1 of the exhaustive tokens walk,
	// so it is always expanded; the hash is structural, so an equal term built
	// here keys the same fault.
	target := NewConfig(NewOp("c", NewInt(1)), NewOp("c", NewInt(0)), NewOp("c", NewInt(0))).Hash()
	for _, w := range []int{1, 2, 4} {
		plan := &faultinject.Plan{PanicOnState: target}
		res, err := tokens(6).SearchContext(context.Background(), tokensInit3(),
			Goal{Pattern: NewOp("nope")}, Options{Workers: w, Faults: plan})
		var serr *SearchError
		if !errors.As(err, &serr) {
			t.Fatalf("workers=%d: error %T is not a *SearchError: %v", w, err, err)
		}
		if serr.StateHash != target {
			t.Errorf("workers=%d: fault on state %#x, want %#x", w, serr.StateHash, target)
		}
		if res == nil || !res.Interrupted {
			t.Errorf("workers=%d: partial result missing or not Interrupted", w)
		}
	}
}

// TestSuccessorErrorDeterministic pins the engine's error path: an injected
// successor error is reported with attribution, wins over the goal that
// later frontier nodes would reach, and the outcome is identical at every
// Workers setting.
func TestSuccessorErrorDeterministic(t *testing.T) {
	target := NewConfig(NewOp("c", NewInt(1)), NewOp("c", NewInt(0)), NewOp("c", NewInt(0))).Hash()
	// The goal is reachable (c reaches 6 on the exhaustive walk), but only
	// past the faulted state's level, so the error must win.
	goal := Goal{Pattern: NewConfig(NewOp("c", NewInt(6)), NewVar("Z", SortConfig))}

	type outcome struct {
		found    bool
		injected bool
		state    uint64
		states   int
	}
	runAt := func(w int) outcome {
		plan := &faultinject.Plan{ErrOnState: target}
		res, err := tokens(6).SearchContext(context.Background(), tokensInit3(), goal,
			Options{Workers: w, Faults: plan})
		o := outcome{}
		if err != nil {
			var serr *SearchError
			if !errors.As(err, &serr) {
				t.Fatalf("workers=%d: error %T is not a *SearchError: %v", w, err, err)
			}
			o.injected = errors.Is(serr, faultinject.ErrInjected)
			o.state = serr.StateHash
		}
		if res != nil {
			o.found = res.Found
			o.states = res.StatesExplored
		}
		return o
	}

	ref := runAt(1)
	if !ref.injected {
		t.Fatalf("workers=1: expected the injected successor error to win, got %+v", ref)
	}
	if ref.state != target {
		t.Errorf("workers=1: error attributed to state %#x, want %#x", ref.state, target)
	}
	for _, w := range []int{2, 4, 8} {
		if got := runAt(w); got != ref {
			t.Errorf("workers=%d: outcome %+v, want the sequential outcome %+v", w, got, ref)
		}
	}
}

// TestCancelAtLevel: the injected mid-level cancellation is reported as a
// search fault (ErrInjectedCancel), not as a clean caller timeout, and the
// caller's own context stays alive.
func TestCancelAtLevel(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx := context.Background()
		plan := &faultinject.Plan{CancelAtLevel: 3}
		res, err := counter().SearchContext(ctx, cnt(0),
			Goal{Pattern: cnt(-1)},
			Options{Workers: w, Faults: plan})
		if !errors.Is(err, faultinject.ErrInjectedCancel) {
			t.Fatalf("workers=%d: err = %v, want ErrInjectedCancel", w, err)
		}
		var serr *SearchError
		if !errors.As(err, &serr) {
			t.Errorf("workers=%d: cancellation fault is not a *SearchError", w)
		}
		if res == nil || !res.Interrupted {
			t.Errorf("workers=%d: result missing or not Interrupted", w)
		}
		if ctx.Err() != nil {
			t.Errorf("workers=%d: injected cancellation leaked into the caller's context", w)
		}
	}
}

// TestLatencyChaosHarmless: injected per-expansion latency (the slow-search
// chaos mode) changes nothing observable — verdict, witness, state count
// and stats all match the fault-free run, at any Workers setting.
func TestLatencyChaosHarmless(t *testing.T) {
	run := func(w int, plan *faultinject.Plan) *SearchResult {
		res, err := tokens(5).SearchContext(context.Background(),
			NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
			Goal{Pattern: NewOp("nope")},
			Options{Workers: w, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1, nil)
	for _, w := range []int{1, 4} {
		res := run(w, &faultinject.Plan{ExpansionLatency: 200 * time.Microsecond})
		if res.Found != ref.Found || res.StatesExplored != ref.StatesExplored ||
			res.Stats.DedupHits != ref.Stats.DedupHits ||
			fmt.Sprint(res.Stats.Frontier) != fmt.Sprint(ref.Stats.Frontier) {
			t.Errorf("workers=%d with latency: (found=%v states=%d dedup=%d frontier=%v), want (%v %d %d %v)",
				w, res.Found, res.StatesExplored, res.Stats.DedupHits, res.Stats.Frontier,
				ref.Found, ref.StatesExplored, ref.Stats.DedupHits, ref.Stats.Frontier)
		}
		if got, want := FormatWitness(res.Witness), FormatWitness(ref.Witness); got != want {
			t.Errorf("workers=%d with latency: witness\n%s\nwant\n%s", w, got, want)
		}
		if !reflect.DeepEqual(res.Stats.RuleFirings, ref.Stats.RuleFirings) {
			t.Errorf("workers=%d with latency: rule firings %v, want %v", w, res.Stats.RuleFirings, ref.Stats.RuleFirings)
		}
		if res.Stats.CacheHits != ref.Stats.CacheHits || res.Stats.CacheMisses != ref.Stats.CacheMisses {
			t.Errorf("workers=%d with latency: cache %d hits / %d misses, want %d / %d", w,
				res.Stats.CacheHits, res.Stats.CacheMisses, ref.Stats.CacheHits, ref.Stats.CacheMisses)
		}
	}
}

// TestChaosNoFaultIsCleanRun: the zero fault plan and a nil plan are
// indistinguishable from no plan at all — the production nil-check path.
func TestChaosNoFaultIsCleanRun(t *testing.T) {
	goal := Goal{Pattern: NewConfig(NewOp("c", NewInt(6)), NewVar("Z", SortConfig))}
	ref, err := tokens(6).SearchContext(context.Background(), tokensInit3(), goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*faultinject.Plan{nil, {}} {
		res, err := tokens(6).SearchContext(context.Background(), tokensInit3(), goal,
			Options{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != ref.Found || res.StatesExplored != ref.StatesExplored ||
			fmt.Sprint(witnessRules(res.Witness)) != fmt.Sprint(witnessRules(ref.Witness)) {
			t.Errorf("plan %#v changed a fault-free run", plan)
		}
	}
}

// TestChaosCompileDifferential checks the fault-plan chaos matrix against
// the reference search: a faulted run is deterministic, so its
// partial result — explored states, no goal, no witness — must be the
// reference's stopped at the same point: before the faulted expansion, or
// at the cancelled level. Errors and panics must surface as *SearchError.
// The latency plan never aborts, so its results must be the reference's at
// any Workers setting.
func TestChaosCompileDifferential(t *testing.T) {
	goal := Goal{Pattern: NewConfig(NewOp("c", NewInt(6)), NewVar("Z", SortConfig))}
	plans := []struct {
		name  string
		mk    func() *faultinject.Plan
		stop  refOptions // where the reference must stop to match
		panic bool
	}{
		{"err-at-expansion", func() *faultinject.Plan { return &faultinject.Plan{ErrAtExpansion: 4} },
			refOptions{MaxExpansions: 3}, false},
		{"panic-at-expansion", func() *faultinject.Plan { return &faultinject.Plan{PanicAtExpansion: 3} },
			refOptions{MaxExpansions: 2}, true},
		{"cancel-at-level", func() *faultinject.Plan { return &faultinject.Plan{CancelAtLevel: 2} },
			refOptions{MaxDepth: 2}, false},
	}
	for _, pc := range plans {
		t.Run(pc.name, func(t *testing.T) {
			res, err := tokens(6).SearchContext(context.Background(), tokensInit3(), goal,
				Options{Faults: pc.mk()})
			var se *SearchError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v (%T), want a *SearchError", err, err)
			}
			if (se.Panic != nil) != pc.panic {
				t.Errorf("panic = %v, want a panic: %v", se.Panic, pc.panic)
			}
			if res == nil {
				t.Fatal("no partial result")
			}
			ref, rerr := referenceSearch(tokens(6), tokensInit3(), goal, pc.stop)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if res.Found || !res.Interrupted || res.StatesExplored != ref.StatesExplored {
				t.Errorf("partial result (found=%v interrupted=%v states=%d), want (false true %d)",
					res.Found, res.Interrupted, res.StatesExplored, ref.StatesExplored)
			}
			if len(res.Witness) != 0 {
				t.Errorf("partial result carries a witness:\n%s", FormatWitness(res.Witness))
			}
		})
	}
	t.Run("expansion-latency", func(t *testing.T) {
		ref, err := referenceSearch(tokens(6), tokensInit3(), goal, refOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			res, err := tokens(6).SearchContext(context.Background(), tokensInit3(), goal,
				Options{Workers: w, Faults: &faultinject.Plan{ExpansionLatency: 100 * time.Microsecond}})
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if d := refDiff(res, ref.SearchResult); d != "" {
				t.Errorf("workers=%d: latency-faulted run diverges from the reference: %s", w, d)
			}
		}
	})
}
