package rosa

import (
	"context"

	"privanalyzer/internal/rewrite"
)

// Checker runs many queries against one shared pair of rewrite theories.
// Query.RunContext builds a fresh System per call, which is correct but
// discards everything the engine learned: the rule index, the memoized
// term bitmaps, and — most importantly — the transition cache. The attack
// queries a program analysis issues per phase (and repeated phases with
// identical credentials and privileges) explore heavily overlapping state
// graphs, so a Checker attaches one TransitionCache per system and every
// query it runs shares the expanded graph. core.AnalyzeContext holds one
// Checker per analyzed program.
//
// Sharing is safe because searches never mutate the System: the rule set is
// fixed at construction, and cached successor sets are immutable. Verdicts,
// witnesses, and state counts are identical to fresh-System runs — the
// cache returns exactly what the walk would recompute.
type Checker struct {
	base, ext *rewrite.System
}

// NewChecker builds the base and §X extended systems, each with its own
// transition cache (their rule sets differ, so their successor sets must
// never mix).
func NewChecker() *Checker {
	base := NewSystem()
	base.Cache = rewrite.NewTransitionCache()
	ext := NewExtendedSystem()
	ext.Cache = rewrite.NewTransitionCache()
	return NewCheckerOver(base, ext)
}

// NewCheckerOver returns a Checker that runs base queries on base and §X
// extended ones on ext, as given: it attaches no cache and adds no rule.
func NewCheckerOver(base, ext *rewrite.System) *Checker {
	return &Checker{base: base, ext: ext}
}

// system returns the shared System a query with the given extension flag
// runs against.
func (c *Checker) system(extended bool) *rewrite.System {
	if extended {
		return c.ext
	}
	return c.base
}

// Run executes q against the checker's shared systems — the drop-in,
// cache-warm replacement for q.RunContext(ctx).
func (c *Checker) Run(ctx context.Context, q *Query) (*Result, error) {
	return q.runOn(ctx, c.system(q.Extended))
}
