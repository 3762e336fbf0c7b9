package rosa

import (
	"context"
	"testing"
)

// TestCheckersShareRulesNotCaches pins what NewChecker shares: every
// Checker runs on the one process-wide rule set per theory, but each has
// transition caches of its own, so a second Checker's first query starts
// cold however warm the first Checker is.
func TestCheckersShareRulesNotCaches(t *testing.T) {
	a, b := NewChecker(), NewChecker()
	for _, ext := range []bool{false, true} {
		sa, sb := a.system(ext), b.system(ext)
		if sa == sb || sa.Cache == nil || sa.Cache == sb.Cache {
			t.Fatalf("extended=%v: checkers share a System or a cache", ext)
		}
		if &sa.Rules[0] != &sb.Rules[0] {
			t.Errorf("extended=%v: checkers hold separate rule sets", ext)
		}
	}
	if a.base.Cache == a.ext.Cache {
		t.Error("base and extended systems share a cache")
	}
	q := workedExample()
	var states []int
	for i, c := range []*Checker{a, a, b} {
		res, err := c.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, res.StatesExplored)
		// Only a's second run finds its states already expanded.
		if warm := res.Stats.CacheHits > 0; warm != (i == 1) {
			t.Errorf("run %d: %d cache hits, %d misses", i, res.Stats.CacheHits, res.Stats.CacheMisses)
		}
	}
	if states[0] != states[1] || states[0] != states[2] {
		t.Errorf("state counts %v differ between runs", states)
	}
}
