package rewrite

import (
	"context"
	"fmt"
	"reflect"
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
				BuildAll: func(b *Env) []*Term {
					n, _ := b.Int("N")
					if n >= cap {
						return nil
					}
					return []*Term{b.Replace(NewOp("c", NewInt(n+1)))}
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
				BuildAll: func(b *Env) []*Term {
					n, _ := b.Int("N")
					return []*Term{b.Replace(NewOp("c", NewInt(n+1)))}
				},
			},
		},
	}
}

// cnt is a counter state: the configuration holding the one token c(n).
func cnt(n int64) *Term { return NewConfig(NewOp("c", NewInt(n))) }

// counter builds the infinite c(n) -> c(n+1) system.
func counter() *System {
	return &System{
		Rules: []Rule{{
			Name: "inc",
			LHS:  NewConfig(NewOp("c", NewVar("N", SortInt))),
			BuildAll: func(b *Env) []*Term {
				n, _ := b.Int("N")
				return []*Term{b.Replace(NewOp("c", NewInt(n+1)))}
			},
		}},
	}
}

// equivCase is one (system, query) pair the equivalence tests replay.
type equivCase struct {
	name string
	sys  *System
	init *Term
	goal Goal
	opts Options
}

func equivCases() []equivCase {
	found := Goal{
		Pattern: NewConfig(NewVar("S", SortConfig)),
		Cond: func(b *Env) bool {
			st := b.Get("S")
			return countSym(st, "a") >= 1 && countSym(st, "c") >= 1
		},
	}
	never := Goal{Pattern: NewConfig(NewOp("nope"), NewVar("Z", SortConfig))}
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
			init: cnt(0),
			goal: Goal{Pattern: cnt(-1)},
			opts: Options{MaxStates: 200},
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

// TestParallelEquivalence: Options.Workers is ignored. Any value, huge ones
// included, yields the Workers=1 result — verdict, witness, state count, and
// every statistic but the wall-clock time.
func TestParallelEquivalence(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Workers = 1
			ref, err := tc.sys.SearchContext(context.Background(), tc.init, tc.goal, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{0, 2, 4, 8, 1 << 61, 1 << 62} {
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
				g, r := got.Stats.Clone(), ref.Stats.Clone()
				g.Elapsed, r.Elapsed = 0, 0
				if !reflect.DeepEqual(g, r) {
					t.Errorf("workers=%d: stats\n%+v\nwant\n%+v", w, g, r)
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
		Pattern: NewConfig(NewVar("S", SortConfig)),
		Cond: func(b *Env) bool {
			return countSym(b.Get("S"), "c") >= 1
		},
	}
	old, err := s.SearchContext(context.Background(), init, goal, Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	new_, err := s.SearchContext(context.Background(), init, goal, Options{MaxDepth: 8})
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
// the budget, at any Workers setting, and the goal-match and enqueue paths
// apply the same check.
func TestBudgetExact(t *testing.T) {
	goal := Goal{Pattern: cnt(-1)}
	for _, w := range []int{1, 4} {
		for _, budget := range []int{1, 2, 100} {
			res, err := counter().SearchContext(context.Background(),
				cnt(0), goal, Options{MaxStates: budget, Workers: w})
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
	res, err := counter().SearchContext(ctx, cnt(0),
		Goal{Pattern: cnt(-1)}, Options{})
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
// leaves no goroutine behind.
func TestSearchContextDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	begun := time.Now()
	res, err := counter().SearchContext(ctx, cnt(0),
		Goal{Pattern: cnt(-1)}, Options{})
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

	// The search starts no goroutine; give the runtime's own (the context's
	// timer) a moment before declaring a leak.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before search, %d after — goroutines leaked", before, n)
	}
}

// TestStatsAccounting checks the observability surface's arithmetic on an
// exhaustive search: every generated successor is either a new state or a
// dedup hit, and the frontier series starts at the root.
func TestStatsAccounting(t *testing.T) {
	var snapshots int
	res, err := tokens(4).SearchContext(context.Background(),
		NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
		Goal{Pattern: NewConfig(NewOp("nope"), NewVar("Z", SortConfig))},
		Options{OnStats: func(st *SearchStats) { snapshots++ }})
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

// TestStatsIntervalThrottle pins the two OnStats cadences: interval zero
// keeps the historical once-per-level firing (plus the final snapshot), a
// huge interval suppresses everything but the final snapshot.
func TestStatsIntervalThrottle(t *testing.T) {
	run := func(interval time.Duration) (snapshots int, levels int) {
		var last *SearchStats
		res, err := tokens(6).SearchContext(context.Background(),
			NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
			Goal{Pattern: NewConfig(NewOp("nope"), NewVar("Z", SortConfig))},
			Options{
				StatsInterval: interval,
				OnStats: func(st *SearchStats) {
					snapshots++
					if last != nil && last.Final {
						t.Error("a snapshot arrived after the Final one")
					}
					last = st
				},
			})
		if err != nil {
			t.Fatal(err)
		}
		if last == nil {
			t.Fatal("OnStats never fired")
		}
		// The final snapshot always reflects the finished search and is the
		// only one flagged Final, so progress printers can tell the
		// unconditional end-of-search snapshot from interval ticks.
		if !last.Final {
			t.Error("last snapshot not flagged Final")
		}
		if last.StatesExplored != res.StatesExplored {
			t.Errorf("final snapshot states %d != result states %d",
				last.StatesExplored, res.StatesExplored)
		}
		return snapshots, len(res.Stats.Frontier)
	}

	perLevel, levels := run(0)
	if levels < 3 {
		t.Fatalf("test search only has %d levels; need a deeper one", levels)
	}
	// One firing per completed level plus the final snapshot.
	if perLevel != levels+1 {
		t.Errorf("interval 0: %d snapshots over %d levels, want %d",
			perLevel, levels, levels+1)
	}

	throttled, _ := run(time.Hour)
	if throttled != 1 {
		t.Errorf("interval 1h: %d snapshots, want only the final one", throttled)
	}
}

// TestShareKeepsMatchersSplitsCaches pins System.Share: every shared System
// runs on the parent's compiled matchers and rule index, compiled once,
// with only the cache it was given, and searches exactly like the parent.
func TestShareKeepsMatchersSplitsCaches(t *testing.T) {
	parent := tokens(4)
	a, b := parent.Share(NewTransitionCache()), parent.Share(NewTransitionCache())
	if a.comp == nil || a.comp != parent.comp || b.comp != parent.comp || a.idx != parent.idx || b.idx != parent.idx {
		t.Fatal("shared Systems do not run on the parent's compiled matchers and rule index")
	}
	if a.Cache == nil || a.Cache == b.Cache || parent.Cache != nil {
		t.Fatalf("caches: parent %p, a %p, b %p; want a and b distinct and the parent's untouched", parent.Cache, a.Cache, b.Cache)
	}
	init := NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)))
	goal := Goal{Pattern: NewConfig(NewOp("c", NewInt(8)), NewVar("Z", SortConfig))}
	want, err := parent.SearchContext(context.Background(), init, goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sys := range []*System{a, a, b} {
		got, err := sys.SearchContext(context.Background(), init, goal, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Found != want.Found || got.StatesExplored != want.StatesExplored ||
			FormatWitness(got.Witness) != FormatWitness(want.Witness) {
			t.Errorf("search %d: (%v, %d states) vs parent (%v, %d states)",
				i, got.Found, got.StatesExplored, want.Found, want.StatesExplored)
		}
		// a's second search is served by its own cache; b's first by none.
		if hits := got.Stats.CacheHits > 0; hits != (i == 1) {
			t.Errorf("search %d: %d cache hits", i, got.Stats.CacheHits)
		}
	}
}
