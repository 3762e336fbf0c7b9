package rewrite

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// tokens builds a finite but branching multiset system for the equivalence
// tests: tokens c(n) independently count up to a cap, and any two equal
// tokens can merge into one a step higher. Commuting interleavings make the
// dedup set and the frontier order both matter.
func tokens(cap int64) *System {
	return &System{
		Rules: []Rule{
			{
				Name: "inc",
				LHS:  NewConfig(NewOp("c", NewVar("N", SortInt)), NewVar("Z", SortConfig)),
				Build: func(b *Env) (*Term, bool) {
					n, _ := b.Int("N")
					if n >= cap {
						return nil, false
					}
					return NewConfig(NewOp("c", NewInt(n+1)), b.Get("Z")), true
				},
			},
			{
				Name: "merge",
				LHS: NewConfig(
					NewOp("c", NewVar("N", SortInt)),
					NewOp("c", NewVar("M", SortInt)),
					NewVar("Z", SortConfig)),
				Cond: func(b *Env) bool {
					n, _ := b.Int("N")
					m, _ := b.Int("M")
					return n == m
				},
				Build: func(b *Env) (*Term, bool) {
					n, _ := b.Int("N")
					return NewConfig(NewOp("c", NewInt(n+1)), b.Get("Z")), true
				},
			},
		},
	}
}

// counter builds the infinite c(n) -> c(n+1) system.
func counter() *System {
	return &System{
		Rules: []Rule{{
			Name: "inc",
			LHS:  NewOp("c", NewVar("N", SortInt)),
			Build: func(b *Env) (*Term, bool) {
				n, _ := b.Int("N")
				return NewOp("c", NewInt(n+1)), true
			},
		}},
	}
}

// equivCase is one (system, query) pair the worker-count sweep replays.
type equivCase struct {
	name string
	sys  *System
	init *Term
	goal Goal
	opts Options
}

func equivCases() []equivCase {
	found := Goal{
		Pattern: NewVar("S", SortConfig),
		Cond: func(b *Env) bool {
			st := b.Get("S")
			return countSym(st, "a") >= 1 && countSym(st, "c") >= 1
		},
	}
	never := Goal{Pattern: NewOp("nope")}
	return []equivCase{
		{
			name: "vending/found",
			sys:  vending(),
			init: NewConfig(NewOp("$"), NewOp("q"), NewOp("q"), NewOp("q")),
			goal: found,
			opts: Options{MaxDepth: 10},
		},
		{
			name: "vending/exhausts",
			sys:  vending(),
			init: NewConfig(NewOp("$"), NewOp("$"), NewOp("q"), NewOp("q"), NewOp("q")),
			goal: never,
			opts: Options{},
		},
		{
			name: "tokens/exhausts",
			sys:  tokens(4),
			init: NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)), NewOp("c", NewInt(1))),
			goal: never,
			opts: Options{},
		},
		{
			name: "tokens/found",
			sys:  tokens(6),
			init: NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
			goal: Goal{Pattern: NewConfig(NewOp("c", NewInt(6)), NewVar("Z", SortConfig))},
			opts: Options{},
		},
		{
			name: "counter/truncates",
			sys:  counter(),
			init: NewOp("c", NewInt(0)),
			goal: Goal{Pattern: NewOp("c", NewInt(-1))},
			opts: Options{MaxStates: 200},
		},
		{
			name: "tokens/nodedup",
			sys:  tokens(3),
			init: NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
			goal: never,
			opts: Options{NoDedup: true, MaxStates: 500},
		},
	}
}

// witnessRules flattens a witness to its rule-name sequence.
func witnessRules(w []Step) []string {
	out := make([]string, len(w))
	for i, s := range w {
		out[i] = s.Rule
	}
	return out
}

// TestParallelEquivalence is the engine's core guarantee: any worker count
// yields byte-identical results — verdict, witness, state count, and even
// the statistics — because the merge replays the sequential algorithm.
func TestParallelEquivalence(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Workers = 1
			ref, err := tc.sys.SearchContext(context.Background(), tc.init, tc.goal, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Counts past MaxWorkers run clamped to it; unclamped, 2^61
			// overflowed the chunk size into a makeslice panic and 2^62
			// into an endless spin on empty chunks.
			for _, w := range []int{2, 4, 8, 1 << 61, 1 << 62} {
				opts := tc.opts
				opts.Workers = w
				got, err := tc.sys.SearchContext(context.Background(), tc.init, tc.goal, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Found != ref.Found || got.Truncated != ref.Truncated ||
					got.StatesExplored != ref.StatesExplored {
					t.Errorf("workers=%d: (found=%v truncated=%v states=%d), want (%v %v %d)",
						w, got.Found, got.Truncated, got.StatesExplored,
						ref.Found, ref.Truncated, ref.StatesExplored)
				}
				if fmt.Sprint(witnessRules(got.Witness)) != fmt.Sprint(witnessRules(ref.Witness)) {
					t.Errorf("workers=%d: witness %v, want %v",
						w, witnessRules(got.Witness), witnessRules(ref.Witness))
				}
				if ref.Found && !got.Final.Equal(ref.Final) {
					t.Errorf("workers=%d: final state differs", w)
				}
				if got.Stats.DedupHits != ref.Stats.DedupHits ||
					fmt.Sprint(got.Stats.Frontier) != fmt.Sprint(ref.Stats.Frontier) ||
					fmt.Sprint(got.Stats.RuleFirings) != fmt.Sprint(ref.Stats.RuleFirings) {
					t.Errorf("workers=%d: stats (dedup=%d frontier=%v firings=%v), want (%d %v %v)",
						w, got.Stats.DedupHits, got.Stats.Frontier, got.Stats.RuleFirings,
						ref.Stats.DedupHits, ref.Stats.Frontier, ref.Stats.RuleFirings)
				}
			}
		})
	}
}

// TestSearchMatchesContext pins the context-free convenience wrapper to
// the context entry point: same Options in, same result out.
func TestSearchMatchesContext(t *testing.T) {
	s := vending()
	init := NewConfig(NewOp("$"), NewOp("q"), NewOp("q"), NewOp("q"))
	goal := Goal{
		Pattern: NewVar("S", SortConfig),
		Cond: func(b *Env) bool {
			return countSym(b.Get("S"), "c") >= 1
		},
	}
	old, err := s.Search(init, goal, Options{MaxDepth: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	new_, err := s.SearchContext(context.Background(), init, goal, Options{MaxDepth: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if old.Found != new_.Found || old.StatesExplored != new_.StatesExplored ||
		fmt.Sprint(witnessRules(old.Witness)) != fmt.Sprint(witnessRules(new_.Witness)) {
		t.Errorf("Search wrapper diverges: (%v, %d, %v) vs (%v, %d, %v)",
			old.Found, old.StatesExplored, witnessRules(old.Witness),
			new_.Found, new_.StatesExplored, witnessRules(new_.Witness))
	}
}

// TestBudgetExact pins the MaxStates contract: StatesExplored never exceeds
// the budget, at any worker count, and the goal-match and enqueue paths
// apply the same check.
func TestBudgetExact(t *testing.T) {
	goal := Goal{Pattern: NewOp("c", NewInt(-1))}
	for _, w := range []int{1, 4} {
		for _, budget := range []int{1, 2, 100} {
			res, err := counter().SearchContext(context.Background(),
				NewOp("c", NewInt(0)), goal, Options{MaxStates: budget, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Truncated {
				t.Errorf("workers=%d budget=%d: expected truncation", w, budget)
			}
			if res.StatesExplored != budget {
				t.Errorf("workers=%d budget=%d: explored %d states, want exactly the budget",
					w, budget, res.StatesExplored)
			}
		}
	}
}

// TestSearchContextCancelled: an already-cancelled context reports an
// interrupted (not truncated, not found) search immediately.
func TestSearchContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := counter().SearchContext(ctx, NewOp("c", NewInt(0)),
		Goal{Pattern: NewOp("c", NewInt(-1))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.Found || res.Truncated {
		t.Errorf("interrupted=%v found=%v truncated=%v, want interrupted only",
			res.Interrupted, res.Found, res.Truncated)
	}
}

// TestSearchContextDeadline: an expiring deadline stops an unbounded search
// promptly — well within the 100ms the acceptance criterion allows — and
// leaks no worker goroutines.
func TestSearchContextDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	begun := time.Now()
	res, err := counter().SearchContext(ctx, NewOp("c", NewInt(0)),
		Goal{Pattern: NewOp("c", NewInt(-1))}, Options{Workers: 8})
	took := time.Since(begun)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Error("expected an interrupted search")
	}
	if took > 120*time.Millisecond {
		t.Errorf("search returned %v after the 20ms deadline", took-20*time.Millisecond)
	}

	// Workers exit once they observe the cancelled context; give the
	// scheduler a moment before declaring a leak.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before search, %d after — workers leaked", before, n)
	}
}

// TestStatsAccounting checks the observability surface's arithmetic on an
// exhaustive search: every generated successor is either a new state or a
// dedup hit, and the frontier series starts at the root.
func TestStatsAccounting(t *testing.T) {
	var snapshots int
	res, err := tokens(4).SearchContext(context.Background(),
		NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
		Goal{Pattern: NewOp("nope")},
		Options{Workers: 1, OnStats: func(st *SearchStats) { snapshots++ }})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("no stats attached to the result")
	}
	if st.StatesExplored != res.StatesExplored {
		t.Errorf("stats states %d != result states %d", st.StatesExplored, res.StatesExplored)
	}
	generated := 0
	for _, n := range st.RuleFirings {
		generated += n
	}
	if want := res.StatesExplored - 1 + st.DedupHits; generated != want {
		t.Errorf("rule firings %d != new states %d + dedup hits %d",
			generated, res.StatesExplored-1, st.DedupHits)
	}
	if len(st.Frontier) == 0 || st.Frontier[0] != 1 {
		t.Errorf("frontier %v, want it to start with the root level [1 ...]", st.Frontier)
	}
	if snapshots == 0 {
		t.Error("OnStats was never called")
	}
	if st.Elapsed <= 0 || st.StatesPerSec() <= 0 {
		t.Errorf("elapsed %v, states/sec %.1f: want positive", st.Elapsed, st.StatesPerSec())
	}
}
