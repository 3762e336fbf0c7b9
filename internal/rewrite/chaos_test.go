package rewrite

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"privanalyzer/internal/faultinject"
	"privanalyzer/internal/telemetry"
)

// Chaos suite: every single injected fault must leave the process alive, the
// faulted search with a partial result and a typed *SearchError, and — the
// standing invariant — fault-free behaviour byte-identical at any worker
// count. Fault points are deterministic (internal/faultinject), so each case
// replays exactly.

// tokensInit3 is the branching chaos workload: three tokens counting to 6.
func tokensInit3() *Term {
	return NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)), NewOp("c", NewInt(0)))
}

// TestPanicIsolation: a worker panic mid-expansion surfaces as a *SearchError
// carrying the panic value, the state, and partial stats — never as a crashed
// test process.
func TestPanicIsolation(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			plan := &faultinject.Plan{PanicAtExpansion: 3}
			res, err := counter().SearchContext(context.Background(),
				NewOp("c", NewInt(0)), Goal{Pattern: NewOp("c", NewInt(-1))},
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

// TestPanicOnStateParallelDeterminism: a state-keyed panic (the schedule-
// independent fault point) names the same state in the SearchError at every
// worker count, because deduplication expands each state at most once.
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

// TestSuccessorErrorDeterministic pins the merge's error path (exps[i].err):
// an injected successor error is reported with attribution, wins over any
// concurrently discovered goal in later frontier slots, and the outcome is
// identical at every worker count because the merge replays frontier order.
func TestSuccessorErrorDeterministic(t *testing.T) {
	target := NewConfig(NewOp("c", NewInt(1)), NewOp("c", NewInt(0)), NewOp("c", NewInt(0))).Hash()
	// The goal is reachable (c reaches 6 on the exhaustive walk), so workers
	// expanding other frontier slots do find it concurrently — the error must
	// still win whenever its slot merges first, and the winner must not
	// depend on the worker count.
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
		res, err := counter().SearchContext(ctx, NewOp("c", NewInt(0)),
			Goal{Pattern: NewOp("c", NewInt(-1))},
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

// journalKey flattens an event's schedule-independent content.
func journalKey(ev telemetry.Event) string {
	return fmt.Sprintf("%d/%d/%x/%s/%d", ev.Kind, ev.Depth, ev.Hash, ev.Rule, ev.N)
}

// sortedJournal returns the journal's content keys in sorted order —
// timestamps and ring placement are schedule-dependent, content is not.
func sortedJournal(rec *telemetry.Recorder) []string {
	out := make([]string, 0, 64)
	for _, ev := range rec.Journal() {
		out = append(out, journalKey(ev))
	}
	sort.Strings(out)
	return out
}

// TestLatencyChaosHarmless: injected per-expansion latency (the slow-worker
// chaos mode) changes nothing observable — verdict, state count, stats, and
// journal content all match the fault-free run, at one worker and at many.
func TestLatencyChaosHarmless(t *testing.T) {
	run := func(w int, plan *faultinject.Plan) (*SearchResult, []string) {
		rec := telemetry.NewRecorder(0)
		res, err := tokens(5).SearchContext(context.Background(),
			NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
			Goal{Pattern: NewOp("nope")},
			Options{Workers: w, Faults: plan, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		return res, sortedJournal(rec)
	}
	ref, refJournal := run(1, nil)
	for _, w := range []int{1, 4} {
		res, journal := run(w, &faultinject.Plan{ExpansionLatency: 200 * time.Microsecond})
		if res.Found != ref.Found || res.StatesExplored != ref.StatesExplored ||
			res.Stats.DedupHits != ref.Stats.DedupHits ||
			fmt.Sprint(res.Stats.Frontier) != fmt.Sprint(ref.Stats.Frontier) {
			t.Errorf("workers=%d with latency: (found=%v states=%d dedup=%d frontier=%v), want (%v %d %d %v)",
				w, res.Found, res.StatesExplored, res.Stats.DedupHits, res.Stats.Frontier,
				ref.Found, ref.StatesExplored, ref.Stats.DedupHits, ref.Stats.Frontier)
		}
		if fmt.Sprint(journal) != fmt.Sprint(refJournal) {
			t.Errorf("workers=%d with latency: journal content diverged from the fault-free run", w)
		}
	}
}

// TestMemBudgetDegradation: breaching the soft memory budget first sheds the
// transition cache (search continues), then stops the search with a
// truncated, Degraded result — never an error, never an OOM.
func TestMemBudgetDegradation(t *testing.T) {
	sys := counter()
	sys.Cache = NewTransitionCache()
	res, err := sys.SearchContext(context.Background(), NewOp("c", NewInt(0)),
		Goal{Pattern: NewOp("c", NewInt(-1))},
		Options{Workers: 1, MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !res.Degraded {
		t.Errorf("truncated=%v degraded=%v, want both", res.Truncated, res.Degraded)
	}
	if res.Stats.DegradedAt == 0 {
		t.Error("DegradedAt not recorded")
	}
	if n := sys.Cache.Len(); n != 0 {
		t.Errorf("transition cache holds %d entries after shedding", n)
	}
}

// TestMemBudgetDegradationDFS: the DFS stride check runs the same ladder.
func TestMemBudgetDegradationDFS(t *testing.T) {
	res, err := counter().SearchContext(context.Background(), NewOp("c", NewInt(0)),
		Goal{Pattern: NewOp("c", NewInt(-1))},
		Options{DepthFirst: true, MemBudget: 1, MaxStates: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("expected a truncated search")
	}
	if !res.Degraded && res.StatesExplored >= 10_000 {
		t.Error("DFS hit the state budget without ever consulting the memory budget")
	}
}

// TestTransitionCacheShed pins Shed's contract: it returns the dropped entry
// count, empties every shard, and is nil-safe.
func TestTransitionCacheShed(t *testing.T) {
	var nilCache *TransitionCache
	if nilCache.Shed() != 0 {
		t.Error("nil cache Shed must return 0")
	}
	sys := tokens(5)
	sys.Cache = NewTransitionCache()
	if _, err := sys.SearchContext(context.Background(),
		NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
		Goal{Pattern: NewOp("nope")}, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	n := sys.Cache.Len()
	if n == 0 {
		t.Fatal("exhaustive search left the transition cache empty")
	}
	if dropped := sys.Cache.Shed(); dropped != n {
		t.Errorf("Shed dropped %d entries, cache held %d", dropped, n)
	}
	if sys.Cache.Len() != 0 {
		t.Errorf("cache Len = %d after Shed, want 0", sys.Cache.Len())
	}
	if sys.Cache.Shed() != 0 {
		t.Error("second Shed must drop nothing")
	}
}

// TestChaosNoFaultIsCleanRun: the zero fault plan and a nil plan are
// indistinguishable from no plan at all — the production nil-check path.
func TestChaosNoFaultIsCleanRun(t *testing.T) {
	goal := Goal{Pattern: NewConfig(NewOp("c", NewInt(6)), NewVar("Z", SortConfig))}
	ref, err := tokens(6).SearchContext(context.Background(), tokensInit3(), goal, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*faultinject.Plan{nil, {}} {
		res, err := tokens(6).SearchContext(context.Background(), tokensInit3(), goal,
			Options{Workers: 1, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != ref.Found || res.StatesExplored != ref.StatesExplored ||
			fmt.Sprint(witnessRules(res.Witness)) != fmt.Sprint(witnessRules(ref.Witness)) {
			t.Errorf("plan %#v changed a fault-free run", plan)
		}
	}
}

// TestChaosCompileDifferential extends the fault-plan chaos matrix across
// the compile toggle: the same injected fault must produce the same outcome
// — error shape, partial result, interruption flags, explored states —
// whether the rules run through compiled matchers or the interpreter. At one
// worker the faulted runs are fully deterministic, so everything is compared;
// the latency plan never aborts, so its results must match the clean run's
// verdict at any worker count.
func TestChaosCompileDifferential(t *testing.T) {
	goal := Goal{Pattern: NewConfig(NewOp("c", NewInt(6)), NewVar("Z", SortConfig))}
	plans := []struct {
		name string
		mk   func() *faultinject.Plan
	}{
		{"err-at-expansion", func() *faultinject.Plan { return &faultinject.Plan{ErrAtExpansion: 4} }},
		{"panic-at-expansion", func() *faultinject.Plan { return &faultinject.Plan{PanicAtExpansion: 3} }},
		{"cancel-at-level", func() *faultinject.Plan { return &faultinject.Plan{CancelAtLevel: 2} }},
	}
	for _, pc := range plans {
		t.Run(pc.name, func(t *testing.T) {
			run := func(noCompile bool) (*SearchResult, error) {
				return tokens(6).SearchContext(context.Background(), tokensInit3(), goal,
					Options{Workers: 1, Faults: pc.mk(), NoCompile: noCompile})
			}
			resC, errC := run(false)
			resI, errI := run(true)
			if (errC == nil) != (errI == nil) {
				t.Fatalf("fault outcomes diverge: compiled err=%v, interpreted err=%v", errC, errI)
			}
			if errC != nil {
				var seC, seI *SearchError
				if !errors.As(errC, &seC) || !errors.As(errI, &seI) {
					t.Fatalf("errors are not *SearchError: compiled %T, interpreted %T", errC, errI)
				}
				if (seC.Panic == nil) != (seI.Panic == nil) {
					t.Errorf("panic presence diverges: compiled %v, interpreted %v", seC.Panic, seI.Panic)
				}
			}
			if (resC == nil) != (resI == nil) {
				t.Fatalf("partial result presence diverges")
			}
			if resC == nil {
				return
			}
			if resC.Found != resI.Found || resC.Interrupted != resI.Interrupted ||
				resC.StatesExplored != resI.StatesExplored {
				t.Errorf("partial results diverge: compiled (found=%v interrupted=%v states=%d) vs interpreted (found=%v interrupted=%v states=%d)",
					resC.Found, resC.Interrupted, resC.StatesExplored,
					resI.Found, resI.Interrupted, resI.StatesExplored)
			}
			if FormatWitness(resC.Witness) != FormatWitness(resI.Witness) {
				t.Errorf("witnesses diverge:\ncompiled:\n%s\ninterpreted:\n%s",
					FormatWitness(resC.Witness), FormatWitness(resI.Witness))
			}
		})
	}
	t.Run("expansion-latency", func(t *testing.T) {
		for _, w := range []int{1, 4} {
			run := func(noCompile bool, faults *faultinject.Plan) *SearchResult {
				res, err := tokens(6).SearchContext(context.Background(), tokensInit3(), goal,
					Options{Workers: w, Faults: faults, NoCompile: noCompile})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				return res
			}
			slowC := run(false, &faultinject.Plan{ExpansionLatency: 100 * time.Microsecond})
			slowI := run(true, &faultinject.Plan{ExpansionLatency: 100 * time.Microsecond})
			clean := run(false, nil)
			for _, pair := range []struct {
				name string
				res  *SearchResult
			}{{"compiled", slowC}, {"interpreted", slowI}} {
				if pair.res.Found != clean.Found || pair.res.StatesExplored != clean.StatesExplored {
					t.Errorf("workers=%d: latency-faulted %s run diverges from clean (found=%v states=%d vs found=%v states=%d)",
						w, pair.name, pair.res.Found, pair.res.StatesExplored, clean.Found, clean.StatesExplored)
				}
			}
		}
	})
}
