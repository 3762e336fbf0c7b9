package rosa

import "testing"

// runWorked runs the worked example with the given worker count.
func runWorked(t testing.TB, workers int) *Result {
	t.Helper()
	q := workedExample()
	q.Workers = workers
	res, err := q.Run()
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
	states, attempts, degradedAt int
	degraded                     bool
	cacheHits, cacheMisses       int64
	compiled, fallback           int64
}

func costOf(r *Result) queryCost {
	return queryCost{
		states: r.StatesExplored, attempts: r.Attempts, degradedAt: r.Stats.DegradedAt,
		degraded:  r.Degraded,
		cacheHits: r.Stats.CacheHits, cacheMisses: r.Stats.CacheMisses,
		compiled: r.Stats.CompiledMatches, fallback: r.Stats.FallbackMatches,
	}
}

// TestQueryCostDeterminism pins a query's cost, as Result and its stats
// report it, tier by tier. Elapsed is wall-clock: merely sanity-bounded. The
// semantic counts (states explored, escalation attempts, degradation) are
// deterministic at every worker count — they describe the search, not its
// schedule. The cache and match counters sit between: identical run to run
// at Workers=1, but at Workers>1 two workers can race the same cache fill,
// so those counters are only bounded below by the single-worker figures
// (racing adds duplicate misses and matches, never removes work).
func TestQueryCostDeterminism(t *testing.T) {
	first := runWorked(t, 1)
	if first.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", first.Elapsed)
	}
	ref := costOf(first)
	if ref.states <= 0 {
		t.Errorf("StatesExplored = %d, want > 0", ref.states)
	}
	if ref.attempts < 1 {
		t.Errorf("Attempts = %d, want >= 1", ref.attempts)
	}

	for run := 0; run < 3; run++ {
		if got := costOf(runWorked(t, 1)); got != ref {
			t.Errorf("workers=1 run=%d: cost diverged:\ngot  %+v\nwant %+v", run, got, ref)
		}
		c := costOf(runWorked(t, 4))
		if c.states != ref.states || c.attempts != ref.attempts ||
			c.degraded != ref.degraded || c.degradedAt != ref.degradedAt {
			t.Errorf("workers=4 run=%d: semantic counts diverged:\ngot  %+v\nref  %+v", run, c, ref)
		}
		if c.cacheMisses < ref.cacheMisses || c.compiled+c.fallback < ref.compiled+ref.fallback {
			t.Errorf("workers=4 run=%d: parallel run did less cache/match work than serial:\ngot  %+v\nref  %+v",
				run, c, ref)
		}
	}
}
