package rewrite

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Rule is one rewrite rule over an object configuration: the LHS is a
// configuration pattern of fixed elements plus at most one remainder
// variable, and the rule fires at the root configuration of a state
// wherever the pattern matches (see Compile for the exact shape). The
// replacement is RHS with the binding substituted, unless Build is set, in
// which case Build computes the replacement (Maude's built-in operations
// and arithmetic conditions are expressed this way). Cond, if set, guards
// the rule (a conditional rule, Maude's `crl ... if ...`).
//
// The callbacks read the match through an *Env. A rule resolves the slots
// it reads once, with SlotsOf(LHS), and indexes the Env with At/IntAt; a
// rule over a configuration builds its successor with Env.Replace.
type Rule struct {
	// Name labels the rule in witnesses and diagnostics.
	Name string
	// LHS is the pattern.
	LHS *Term
	// RHS is the template substituted under the match binding; ignored when
	// Build or BuildAll is set.
	RHS *Term
	// Build computes the replacement from the match; returning ok=false
	// vetoes the application (a semantic side condition).
	Build func(e *Env) (t *Term, ok bool)
	// BuildAll computes zero or more replacements from one match; rules
	// whose effect enumerates choices (ROSA's wildcard system-call
	// arguments) use this. Takes precedence over Build and RHS.
	BuildAll func(e *Env) []*Term
	// Cond guards the rule; nil means always applicable.
	Cond func(e *Env) bool
}

// System is a rewrite theory: a signature and the rules (the
// non-deterministic transitions the search explores). Every rule must lie
// in the compiled fragment; Search, SearchContext, Successors and Rewrite
// return an error naming the first rule that does not, before exploring
// any state.
type System struct {
	// Sig assigns sorts to constructor symbols.
	Sig Signature
	// Rules are the transition rules.
	Rules []Rule
	// Cache, if set, memoizes successor sets per interned state across
	// searches over this System (see TransitionCache); rosa.Checker attaches
	// one cache per program so all queries share the expanded graph.
	Cache *TransitionCache

	compOnce sync.Once      // builds comp, idx and compErr on first use
	comp     *CompiledRules // compiled matchers over Rules (compile.go)
	idx      *ruleIndex     // anchor index over Rules (index.go)
	compErr  error          // the first rule outside the compiled fragment
}

// compiled returns the compiled matcher set and its anchor index, building
// both on first use. Rules must not change after the first search (rosa
// builds its extended systems before searching, so this holds there by
// construction). A System cached by a long-lived Checker therefore compiles
// its rules exactly once, and every later query (CLI or server) reuses the
// matchers alongside the shared TransitionCache.
func (s *System) compiled() (*CompiledRules, *ruleIndex, error) {
	s.compOnce.Do(func() {
		s.comp, s.compErr = Compile(s.Rules)
		if s.compErr == nil {
			s.idx = buildRuleIndex(s.Rules)
		}
	})
	return s.comp, s.idx, s.compErr
}

// Step is one rule application in a search witness.
type Step struct {
	// Rule is the name of the applied rule.
	Rule string
	// Result is the state after the application.
	Result *Term
}

// Successors returns every state reachable from t by one rule application
// at its root configuration. Duplicate successors are coalesced
// (hash-interned, like the search's visited set).
func (s *System) Successors(t *Term) ([]Step, error) {
	e, err := s.engine(nil)
	if err != nil {
		return nil, err
	}
	return e.successors(Intern(t)), nil
}

// engine is one search's view of the successor machinery: the System's rule
// index, compiled matchers and transition cache, plus local effectiveness
// counters that fold into SearchStats when the search finishes.
type engine struct {
	sys   *System
	idx   *ruleIndex
	cache *TransitionCache
	comp  *CompiledRules
	rp    *ruleProfiler

	// goalFn is the per-state goal predicate the search loops call: the
	// goal pattern compiled with early exit. It may close over unshared
	// scratch: a search runs on one goroutine. Set by SearchContext.
	goalFn func(*Term) bool

	rulesSkipped    int64 // rule attempts avoided by the index
	subtreesPruned  int64 // element positions below the root, never tried
	cacheHits       int64
	cacheMisses     int64
	compiledMatches int64 // rule attempts, all served by compiled matchers
}

// engine builds the successor engine for one search or Successors call, or
// reports the rule that keeps the System from compiling.
func (s *System) engine(rp *ruleProfiler) (*engine, error) {
	comp, idx, err := s.compiled()
	if err != nil {
		return nil, err
	}
	return &engine{sys: s, idx: idx, comp: comp, cache: s.Cache, rp: rp}, nil
}

// successors returns t's full successor set: from the transition cache
// when one is attached and holds it, otherwise expanded and stored there.
// The caller hands the engine interned states only, so cached keys are
// interned pointers.
func (e *engine) successors(t *Term) []Step {
	if e.cache != nil {
		if steps, ok := e.cache.get(t); ok {
			e.cacheHits++
			return steps
		}
		e.cacheMisses++
	}
	steps := e.expand(t, -1)
	if e.cache != nil {
		e.cache.put(t, steps)
	}
	return steps
}

// first returns Successors(t)[0] without computing the rest: expansion stops
// at the first emission, which the duplicate filter cannot have dropped (no
// successor precedes it), so it is exactly the full expansion's first
// element. Partial results are never cached.
func (e *engine) first(t *Term) (Step, bool) {
	if e.cache != nil {
		if steps, ok := e.cache.get(t); ok {
			e.cacheHits++
			if len(steps) == 0 {
				return Step{}, false
			}
			return steps[0], true
		}
	}
	steps := e.expand(t, 1)
	if len(steps) == 0 {
		return Step{}, false
	}
	return steps[0], true
}

// expand computes t's successor set by trying, in rule order, the rules
// whose anchor symbols all occur among t's elements, at t itself — the root
// configuration. Compile admits only Configuration-rooted rules whose
// elements hold no configuration, so the root is the only position any
// rule can match at in a state that nests none; every element position
// below it is skipped and counted in SubtreesPruned. A non-configuration
// state has no successors. limit > 0 stops after that many successors. Timing, when a profiler is attached, is per rule
// attempt, so attribution is exact, at the price of two clock reads per
// attempt.
func (e *engine) expand(t *Term, limit int) []Step {
	s := e.sys
	var steps []Step
	var skipped, compiled int64
	if t.Kind != Config {
		skipped = int64(len(s.Rules))
	} else {
		eb := elemBits(t)
		cm := e.comp.getScratch()
		defer e.comp.putScratch(cm)
	rules:
		for _, ir := range e.idx.atConfig {
			if ir.anchors&^eb != 0 {
				skipped++ // a required element symbol is absent
				continue
			}
			compiled++
			var began time.Time
			if e.rp != nil {
				began = time.Now()
			}
			reps := e.comp.rules[ir.idx].apply(t, s.Sig, cm, nil)
			if e.rp != nil {
				e.rp.record(ir.idx, time.Since(began), len(reps))
			}
		nextRep:
			for _, rep := range reps {
				nt := Intern(rep)
				// Interned successors dedupe by pointer; successor lists are
				// small, so a scan over steps beats allocating a set per
				// expansion.
				for i := range steps {
					if steps[i].Result == nt {
						continue nextRep
					}
				}
				steps = append(steps, Step{Rule: s.Rules[ir.idx].Name, Result: nt})
				if limit > 0 && len(steps) >= limit {
					break rules
				}
			}
		}
	}
	e.rulesSkipped += skipped
	e.subtreesPruned += int64(len(t.Args))
	e.compiledMatches += compiled
	return steps
}

// SearchResult reports the outcome of a search.
type SearchResult struct {
	// Found reports whether a goal state was reached.
	Found bool
	// Witness is the rule sequence from the initial state to the goal
	// (empty if the initial state already matches).
	Witness []Step
	// Final is the matched goal state, nil if not found.
	Final *Term
	// StatesExplored counts distinct states visited; never exceeds
	// Options.MaxStates.
	StatesExplored int
	// Truncated reports that the search hit MaxStates before exhausting the
	// space (the paper's ROSA timeouts, ⏱ in Table V).
	Truncated bool
	// Interrupted reports that the context was cancelled or its deadline
	// expired before the search finished — the wall-clock analogue of
	// Truncated (the paper's five-hour limit). Callers map both to the
	// Unknown verdict. Also set when the search failed with a *SearchError,
	// so a caller that drops the error still cannot mistake the partial
	// result for a completed Safe verdict.
	Interrupted bool
	// Stats is the final observability snapshot for this search.
	Stats *SearchStats
}

// Goal is a search target: a pattern with variables plus an optional
// semantic condition on the match (Maude's `such that`).
type Goal struct {
	// Pattern must match the state. It must be a pattern the rule compiler
	// admits (Configuration-rooted, see Compile); SearchContext rejects any
	// other goal before it explores a state.
	Pattern *Term
	// Cond, if set, must accept some match of the pattern. It reads the
	// match like a rule callback does (Env, slots from SlotsOf(Pattern)).
	Cond func(e *Env) bool
}

// Search runs Maude-style `search init =>* goal` as a breadth-first
// exploration of the rule-transition graph, returning the shortest witness
// when the goal is reachable. It is the context-free convenience entry
// point — SearchContext under context.Background() with the same unified
// Options every layer shares; it cannot be cancelled.
func (s *System) Search(init *Term, goal Goal, opts Options) (*SearchResult, error) {
	return s.SearchContext(context.Background(), init, goal, opts)
}

// FormatWitness renders a witness as numbered rule applications, one per
// line, like Maude's search solution output.
func FormatWitness(w []Step) string {
	if len(w) == 0 {
		return "(initial state matches)"
	}
	var b strings.Builder
	for i, st := range w {
		fmt.Fprintf(&b, "%2d. %s -> %s\n", i+1, st.Rule, st.Result)
	}
	return b.String()
}

// Rewrite is Maude's `rewrite` command: starting from t, repeatedly apply
// the first applicable rule until no rule applies or maxSteps rule
// applications have been performed. Unlike Search, which explores all
// interleavings, Rewrite follows one deterministic execution — useful for
// simulating a single run of a specification. It returns the final term,
// the steps taken, and whether it stopped because the budget ran out.
// Rewrite only needs each state's first successor, so its expansion stops
// at the first emission instead of enumerating the full set.
func (s *System) Rewrite(t *Term, maxSteps int) (*Term, []Step, bool, error) {
	e, err := s.engine(nil)
	if err != nil {
		return nil, nil, false, err
	}
	cur := Intern(t)
	var trace []Step
	for steps := 0; maxSteps <= 0 || steps < maxSteps; steps++ {
		st, ok := e.first(cur)
		if !ok {
			return cur, trace, false, nil
		}
		cur = st.Result
		trace = append(trace, st)
	}
	return cur, trace, true, nil
}
