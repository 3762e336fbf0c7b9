package rewrite

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// Chaos suite: a rule that crashes mid-search must leave the process alive,
// the faulted search with a partial result and a typed *SearchError, and —
// the standing invariant — fault-free behaviour byte-identical at any
// Workers setting, which the engine ignores. Faults come from the system's
// own seams: a test rule whose Cond panics at a chosen call or state
// (poisoned), and an OnStats callback that sleeps or cancels the caller's
// context. Every fault point is counted or keyed by state, so each case
// replays exactly.

// tokensInit3 is the branching chaos workload: three tokens counting to 6.
func tokensInit3() *Term {
	return NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)), NewOp("c", NewInt(0)))
}

// errInjected is the error a poisoned rule panics with to stand for a
// failing successor computation; errors.Is reaches it through
// SearchError.Unwrap.
var errInjected = errors.New("injected successor error")

// chaosPanic is the non-error value a poisoned rule panics with.
type chaosPanic struct {
	call  int64  // 1-based Cond call count at which the panic fired
	state uint64 // hash of the state being expanded
}

// poisoned returns a copy of sys with one more rule, "poison", that matches
// every configuration and never fires. Its Cond runs once per expansion and
// calls fault with the 1-based call count and the state being expanded;
// fault panics to crash that expansion.
func poisoned(sys *System, fault func(call int64, state *Term)) *System {
	var calls atomic.Int64
	poison := Rule{
		Name: "poison",
		LHS:  NewConfig(NewVar("POISON", SortConfig)),
		Cond: func(e *Env) bool {
			fault(calls.Add(1), e.subj)
			return false
		},
	}
	return &System{Sig: sys.Sig, Rules: append(append([]Rule(nil), sys.Rules...), poison)}
}

// panicAtCall panics with a chaosPanic at the nth Cond call.
func panicAtCall(n int64) func(int64, *Term) {
	return func(call int64, state *Term) {
		if call == n {
			panic(chaosPanic{call: call, state: state.Hash()})
		}
	}
}

// errAt panics with errInjected when the state with hash target is
// expanded, or at the nth Cond call when n > 0.
func errAt(target uint64, n int64) func(int64, *Term) {
	return func(call int64, state *Term) {
		if state.Hash() == target || call == n {
			panic(fmt.Errorf("%w (call %d, state %#x)", errInjected, call, state.Hash()))
		}
	}
}

// cancelAfterLevel returns an OnStats callback that cancels the caller's
// context once n BFS levels have completed, so the search stops before it
// expands a state of level n.
func cancelAfterLevel(n int, cancel context.CancelFunc) func(*SearchStats) {
	return func(st *SearchStats) {
		if !st.Final && len(st.Frontier) == n {
			cancel()
		}
	}
}

// slowNodes returns options whose OnStats callback sleeps d after every
// expanded node: a positive StatsInterval makes OnStats fire per node.
func slowNodes(opts Options, d time.Duration) Options {
	opts.StatsInterval = time.Nanosecond
	opts.OnStats = func(*SearchStats) { time.Sleep(d) }
	return opts
}

// TestPanicIsolation: a panic mid-expansion surfaces as a *SearchError
// carrying the panic value, the state, and partial stats — never as a crashed
// test process.
func TestPanicIsolation(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			res, err := poisoned(counter(), panicAtCall(3)).SearchContext(context.Background(),
				cnt(0), Goal{Pattern: cnt(-1)},
				Options{Workers: w})
			if err == nil {
				t.Fatal("injected panic produced no error")
			}
			var serr *SearchError
			if !errors.As(err, &serr) {
				t.Fatalf("error %T is not a *SearchError: %v", err, err)
			}
			pv, ok := serr.Panic.(chaosPanic)
			if !ok {
				t.Fatalf("SearchError.Panic = %#v, want a chaosPanic", serr.Panic)
			}
			if pv.call != 3 {
				t.Errorf("panic fired at expansion %d, want 3", pv.call)
			}
			if serr.StateHash == 0 || serr.StateHash != pv.state {
				t.Errorf("SearchError state %#x, panic value state %#x: want equal and non-zero",
					serr.StateHash, pv.state)
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
	onTarget := func(call int64, state *Term) {
		if state.Hash() == target {
			panic(chaosPanic{call: call, state: target})
		}
	}
	for _, w := range []int{1, 2, 4} {
		res, err := poisoned(tokens(6), onTarget).SearchContext(context.Background(), tokensInit3(),
			Goal{Pattern: NewConfig(NewOp("nope"), NewVar("Z", SortConfig))}, Options{Workers: w})
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

// TestSuccessorErrorDeterministic pins the engine's error path: a successor
// computation that fails with an error is reported with attribution, wins
// over the goal that later frontier nodes would reach, and the outcome is
// identical at every Workers setting.
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
		res, err := poisoned(tokens(6), errAt(target, 0)).SearchContext(context.Background(),
			tokensInit3(), goal, Options{Workers: w})
		o := outcome{}
		if err != nil {
			var serr *SearchError
			if !errors.As(err, &serr) {
				t.Fatalf("workers=%d: error %T is not a *SearchError: %v", w, err, err)
			}
			o.injected = errors.Is(serr, errInjected)
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

// TestCancelAtLevel: a caller that cancels its context between BFS levels
// gets the clean cancellation outcome — no error, Interrupted set, and not
// one state of the next level expanded — and the final snapshot still
// fires.
func TestCancelAtLevel(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		onStats := cancelAfterLevel(3, cancel)
		var final *SearchStats
		res, err := counter().SearchContext(ctx, cnt(0),
			Goal{Pattern: cnt(-1)},
			Options{Workers: w, OnStats: func(st *SearchStats) {
				onStats(st)
				if st.Final {
					final = st
				}
			}})
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: err = %v, want a clean cancellation", w, err)
		}
		if res == nil || !res.Interrupted {
			t.Fatalf("workers=%d: result missing or not Interrupted", w)
		}
		// Levels 0-2 expanded one state each, generating c(1)..c(3).
		if got := fmt.Sprint(res.Stats.Frontier); got != "[1 1 1]" || res.StatesExplored != 4 {
			t.Errorf("workers=%d: frontier %s, %d states; want [1 1 1], 4: the search ran past the cancelled level",
				w, got, res.StatesExplored)
		}
		if final == nil || final.StatesExplored != res.StatesExplored {
			t.Errorf("workers=%d: final snapshot %+v does not match the result", w, final)
		}
	}
}

// TestLatencyChaosHarmless: per-node latency (the slow-search chaos mode)
// changes nothing observable — verdict, witness, state count and stats all
// match the undelayed run, at any Workers setting.
func TestLatencyChaosHarmless(t *testing.T) {
	run := func(opts Options) *SearchResult {
		res, err := tokens(5).SearchContext(context.Background(),
			NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
			Goal{Pattern: NewConfig(NewOp("nope"), NewVar("Z", SortConfig))},
			opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(Options{Workers: 1})
	for _, w := range []int{1, 4} {
		res := run(slowNodes(Options{Workers: w}, 200*time.Microsecond))
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

// TestChaosCompileDifferential checks the chaos matrix against the
// reference search: a faulted run is deterministic, so its partial result —
// explored states, no goal, no witness — must be the reference's stopped at
// the same point: before the faulted expansion, or at the cancelled level.
// Errors and panics must surface as *SearchError; a cancellation is no
// fault. The latency run never aborts, so its results must be the
// reference's at any Workers setting.
func TestChaosCompileDifferential(t *testing.T) {
	goal := Goal{Pattern: NewConfig(NewOp("c", NewInt(6)), NewVar("Z", SortConfig))}
	cases := []struct {
		name  string
		fault func(int64, *Term) // poisoned rule's fault; nil runs tokens(6) as is
		level int                // cancel the caller's context after this many levels; 0 never
		want  func(*SearchError) bool
		stop  refOptions // where the reference must stop to match
	}{
		{"err-at-expansion", errAt(0, 4), 0,
			func(se *SearchError) bool { return errors.Is(se, errInjected) },
			refOptions{MaxExpansions: 3}},
		{"panic-at-expansion", panicAtCall(3), 0,
			func(se *SearchError) bool { _, ok := se.Panic.(chaosPanic); return ok },
			refOptions{MaxExpansions: 2}},
		{"cancel-at-level", nil, 2, nil, refOptions{MaxDepth: 2}},
	}
	for _, pc := range cases {
		t.Run(pc.name, func(t *testing.T) {
			sys := tokens(6)
			if pc.fault != nil {
				sys = poisoned(sys, pc.fault)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var opts Options
			if pc.level > 0 {
				opts.OnStats = cancelAfterLevel(pc.level, cancel)
			}
			res, err := sys.SearchContext(ctx, tokensInit3(), goal, opts)
			var se *SearchError
			if pc.want == nil {
				if err != nil {
					t.Fatalf("err = %v, want a clean cancellation", err)
				}
			} else if !errors.As(err, &se) {
				t.Fatalf("err = %v (%T), want a *SearchError", err, err)
			} else if !pc.want(se) {
				t.Errorf("SearchError %v (panic %#v) is not the injected fault", se, se.Panic)
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
				slowNodes(Options{Workers: w}, 100*time.Microsecond))
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if d := refDiff(res, ref.SearchResult); d != "" {
				t.Errorf("workers=%d: latency-slowed run diverges from the reference: %s", w, d)
			}
		}
	})
}
