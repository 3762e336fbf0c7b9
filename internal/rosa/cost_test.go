package rosa

import (
	"context"
	"testing"
)

// runWorked runs the worked example with the given Workers setting on a
// fresh Checker, so the transition-cache counters count one cold search.
func runWorked(t testing.TB, workers int) *Result {
	t.Helper()
	q := workedExample()
	q.Workers = workers
	res, err := NewChecker().Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("run attached no stats")
	}
	return res
}

// queryCost is the part of a query's cost that must not vary run to run:
// what the search did, without its wall-clock time.
type queryCost struct {
	states, attempts       int
	cacheHits, cacheMisses int64
	compiled, fallback     int64
}

func costOf(r *Result) queryCost {
	return queryCost{
		states: r.StatesExplored, attempts: r.Attempts,
		cacheHits: r.Stats.CacheHits, cacheMisses: r.Stats.CacheMisses,
		compiled: r.Stats.CompiledMatches, fallback: r.Stats.FallbackMatches,
	}
}

// TestQueryCostDeterminism pins a query's cost, as Result and its stats
// report it. Elapsed is wall-clock: merely sanity-bounded. Everything else —
// states explored, attempts, and the cache and match counters —
// is identical run to run at any Workers setting, which the engine ignores:
// a search runs on one goroutine, so nothing races a cache fill.
func TestQueryCostDeterminism(t *testing.T) {
	first := runWorked(t, 1)
	if first.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", first.Elapsed)
	}
	ref := costOf(first)
	if ref.states <= 0 {
		t.Errorf("StatesExplored = %d, want > 0", ref.states)
	}
	if ref.attempts != 1 {
		t.Errorf("Attempts = %d, want 1", ref.attempts)
	}
	if ref.cacheMisses == 0 {
		t.Error("a cold Checker search recorded no transition-cache misses")
	}

	for run := 0; run < 3; run++ {
		for _, w := range []int{1, 4} {
			if got := costOf(runWorked(t, w)); got != ref {
				t.Errorf("workers=%d run=%d: cost diverged:\ngot  %+v\nwant %+v", w, run, got, ref)
			}
		}
	}
}
