package rewrite

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privanalyzer/internal/faultinject"
	"privanalyzer/internal/telemetry"
)

// Rule is one rewrite rule (or equation). A rule fires where its LHS matches;
// the replacement is RHS with the binding substituted, unless Build is set,
// in which case Build computes the replacement (Maude's built-in operations
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

// apply returns every replacement term the rule produces at the root of t —
// the generic matcher's path. Callbacks get an Env filled from each
// Binding through l, the LHS's slot table (layoutOf); callers that apply
// the rule repeatedly build it once, and nil builds it at the first match.
func (r *Rule) apply(t *Term, sig Signature, l *slotLayout) []*Term {
	if k := r.LHS.Kind; k != Var && (k != t.Kind || k == Op && r.LHS.Sym != t.Sym) {
		return nil // the root cannot match; skip the matcher's allocations
	}
	var out []*Term
	scratch := getBinding()
	defer putBinding(scratch)
	var env *Env
	match(r.LHS, t, scratch, sig, func(b Binding) {
		if r.Cond == nil && r.BuildAll == nil && r.Build == nil {
			out = append(out, Subst(r.RHS, b))
			return
		}
		if env == nil {
			env = envOver(l, r.LHS)
		}
		env.fill(b)
		if r.Cond != nil && !r.Cond(env) {
			return
		}
		if r.BuildAll != nil {
			out = append(out, r.BuildAll(env)...)
			return
		}
		if r.Build != nil {
			if nt, ok := r.Build(env); ok {
				out = append(out, nt)
			}
			return
		}
		out = append(out, Subst(r.RHS, b))
	})
	return out
}

// System is a rewrite theory: a signature, equations (deterministic
// simplification applied to a unique normal form), and rules (the
// non-deterministic transitions the search explores).
type System struct {
	// Sig assigns sorts to constructor symbols.
	Sig Signature
	// Eqs are equations, applied innermost-first to a fixed point by
	// Normalize. They must be confluent and terminating.
	Eqs []Rule
	// Rules are the transition rules.
	Rules []Rule
	// Cache, if set, memoizes successor sets per interned state across
	// searches over this System (see TransitionCache); rosa.Checker attaches
	// one cache per program so all queries share the expanded graph.
	Cache *TransitionCache

	idxOnce sync.Once  // builds idx on first search
	idx     *ruleIndex // successor index over Rules

	compOnce sync.Once      // builds comp on first search
	comp     *CompiledRules // compiled matchers over Rules (compile.go)

	normMu    sync.Mutex      // guards normCache
	normCache map[*Term]*Term // interned term -> interned normal form
}

// index returns the successor index, building it on first use. Rules must
// not change after the first search (rosa builds its extended systems before
// searching, so this holds there by construction).
func (s *System) index() *ruleIndex {
	s.idxOnce.Do(func() { s.idx = buildRuleIndex(s.Rules) })
	return s.idx
}

// compiled returns the compiled matcher set, building it on first use —
// the same once-per-System contract as index(). A System cached by a
// long-lived Checker therefore compiles its rules exactly once, and every
// later query (CLI or server) reuses the matchers alongside the shared
// TransitionCache.
func (s *System) compiled() *CompiledRules {
	s.compOnce.Do(func() { s.comp = Compile(s.Rules) })
	return s.comp
}

// maxNormalizeSteps guards against non-terminating equation sets.
const maxNormalizeSteps = 100_000

// ErrNormalize is returned when equational simplification fails to reach a
// normal form within the step budget.
var ErrNormalize = errors.New("rewrite: equations did not terminate")

// Normalize applies equations innermost-first until no equation applies.
// A system with no equations returns t unchanged without walking it — the
// common case for ROSA, whose theory is pure rules.
func (s *System) Normalize(t *Term) (*Term, error) {
	if len(s.Eqs) == 0 {
		return t, nil
	}
	steps := 0
	var norm func(t *Term) (*Term, error)
	norm = func(t *Term) (*Term, error) {
		// Normalize children first (innermost).
		switch t.Kind {
		case Op, Config:
			args := make([]*Term, len(t.Args))
			changed := false
			for i, a := range t.Args {
				na, err := norm(a)
				if err != nil {
					return nil, err
				}
				args[i] = na
				if na != a {
					changed = true
				}
			}
			if changed {
				if t.Kind == Op {
					t = NewOp(t.Sym, args...)
				} else {
					t = NewConfig(args...)
				}
			}
		}
		// Then the root, repeating until stable.
		for {
			if steps++; steps > maxNormalizeSteps {
				return nil, ErrNormalize
			}
			applied := false
			for i := range s.Eqs {
				if reps := s.Eqs[i].apply(t, s.Sig, nil); len(reps) > 0 {
					nt, err := norm(reps[0])
					if err != nil {
						return nil, err
					}
					t = nt
					applied = true
					break
				}
			}
			if !applied {
				return t, nil
			}
		}
	}
	return norm(t)
}

// Step is one rule application in a search witness.
type Step struct {
	// Rule is the name of the applied rule.
	Rule string
	// Result is the state after the application.
	Result *Term
}

// Successors returns every state reachable from t by one rule application.
// Rules are tried at the root and, recursively, at every subterm position
// (congruence), then the results are normalized. Duplicate successors are
// coalesced (hash-interned, like the search's visited set).
func (s *System) Successors(t *Term) ([]Step, error) {
	return s.engine(Options{}, nil).successors(Intern(t))
}

// engine is one search's view of the successor machinery: the System's rule
// index, compiled matchers and transition cache, plus local effectiveness
// counters that fold into SearchStats when the search finishes.
type engine struct {
	sys   *System
	idx   *ruleIndex
	cache *TransitionCache
	comp  *CompiledRules // compiled matchers; rules outside the fragment fall back per rule
	rp    *ruleProfiler

	cacheEntries int64 // successor sets merged with a cache attached (memEstimate; merge goroutine only)

	rec    *telemetry.Recorder // flight recorder; nil = recording off
	search int32               // recorder search id (Recorder.BeginSearch)

	// goalFn is the per-state goal predicate the search loops call — the
	// goal pattern compiled with early exit when it fits the fragment,
	// Goal.matches otherwise. Only the merge goroutine calls it, so it
	// may close over unshared scratch. Set by SearchContext.
	goalFn func(*Term) bool

	faults       *faultinject.Plan  // fault-injection plan; nil = inject nothing
	faultCancel  context.CancelFunc // cancels the search ctx for a CancelAtLevel fault
	injCancelled bool               // a CancelAtLevel fault fired (written by the merge goroutine only)

	rulesSkipped    atomic.Int64 // rule attempts avoided by the index
	subtreesPruned  atomic.Int64 // subtrees skipped by the bitmap filter
	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	compiledMatches atomic.Int64 // rule attempts served by compiled matchers
	fallbackMatches atomic.Int64 // rule attempts served by the interpreter
}

// engine builds the successor engine for one search or Successors call.
func (s *System) engine(opts Options, rp *ruleProfiler) *engine {
	e := &engine{sys: s, idx: s.index(), comp: s.compiled(), cache: s.Cache, rp: rp,
		faults: opts.Faults}
	if opts.Recorder != nil {
		e.rec = opts.Recorder
		e.search = opts.Recorder.BeginSearch()
	}
	return e
}

// normalize canonicalizes a state: equational normal form, then hash-consed
// via Intern. Normal forms are memoized per interned input so repeated
// simplification of shared shapes is one map probe.
func (e *engine) normalize(t *Term) (*Term, error) {
	s := e.sys
	if len(s.Eqs) == 0 {
		return Intern(t), nil
	}
	key := Intern(t)
	s.normMu.Lock()
	nf, ok := s.normCache[key]
	s.normMu.Unlock()
	if ok {
		return nf, nil
	}
	n, err := s.Normalize(key)
	if err != nil {
		return nil, err
	}
	nf = Intern(n)
	s.normMu.Lock()
	if s.normCache == nil {
		s.normCache = make(map[*Term]*Term)
	}
	s.normCache[key] = nf
	s.normMu.Unlock()
	return nf, nil
}

// successors returns t's full successor set, consulting the transition
// cache when one is attached. The caller hands the engine canonical states
// only (normalize output), so cached keys are interned pointers.
func (e *engine) successors(t *Term) ([]Step, error) {
	steps, cached, err := e.successorsFor(t, 0, nil)
	if err != nil {
		return nil, err
	}
	if !cached {
		e.cachePut(t, steps)
	}
	return steps, nil
}

// successorsFor is the search engines' successor path: like successors, but
// cache insertion is left to the caller (cachePut), so the deterministic
// merge — not the racing expansion workers — decides which expansions become
// shared cache content, keeping later queries' hit/miss events a pure
// function of the query. Cache-lookup and expansion events are recorded into
// b (nil when recording is off). cached reports that steps came from the
// transition cache and must not be re-inserted.
func (e *engine) successorsFor(t *Term, depth int, b *telemetry.EventBuf) (steps []Step, cached bool, err error) {
	if e.cache != nil {
		if steps, ok := e.cache.get(t); ok {
			e.cacheHits.Add(1)
			if b != nil {
				b.Record(telemetry.EvCacheHit, depth, t.Hash(), "", 0)
				b.Record(telemetry.EvStateExpanded, depth, t.Hash(), "", int64(len(steps)))
			}
			return steps, true, nil
		}
		e.cacheMisses.Add(1)
		if b != nil {
			b.Record(telemetry.EvCacheMiss, depth, t.Hash(), "", 0)
		}
	}
	steps, err = e.expand(t, -1, b, depth)
	if err != nil {
		return nil, false, err
	}
	if b != nil {
		b.Record(telemetry.EvStateExpanded, depth, t.Hash(), "", int64(len(steps)))
	}
	return steps, false, nil
}

// cachePut inserts an expanded successor set into the transition cache (no-op
// without one). Split from successorsFor — see there for why.
func (e *engine) cachePut(t *Term, steps []Step) {
	if e.cache != nil {
		e.cache.put(t, steps)
	}
}

// first returns Successors(t)[0] without computing the rest: the walk stops
// at the first emission, which the duplicate filter cannot have dropped (the
// seen-set is empty when it lands), so it is exactly the full walk's first
// element. Partial results are never cached.
func (e *engine) first(t *Term) (Step, bool, error) {
	if e.cache != nil {
		if steps, ok := e.cache.get(t); ok {
			e.cacheHits.Add(1)
			if len(steps) == 0 {
				return Step{}, false, nil
			}
			return steps[0], true, nil
		}
	}
	steps, err := e.expand(t, 1, nil, 0)
	if err != nil {
		return Step{}, false, err
	}
	if len(steps) == 0 {
		return Step{}, false, nil
	}
	return steps[0], true, nil
}

// errStopWalk unwinds the successor walk once expand has collected limit
// successors (the first-only path of Rewrite).
var errStopWalk = errors.New("rewrite: stop walk")

// expand computes t's successor set by trying rules at the root and at every
// subterm position (congruence), in rule order then position order — the
// order of the plain every-rule-every-position walk, since the index only
// removes attempts that produce no replacement and prunes subtrees no rule
// can match inside. limit > 0 stops after that many successors. Timing,
// when a profiler is attached, is per apply call — one rule tried at one
// position — so attribution is exact, at the price of two clock reads per
// attempt.
// Subtree prunes are recorded into b aggregated — one EvSubtreePruned per
// expansion, N = pruned positions — bounding recorder volume on prune-heavy
// walks; b nil means recording off.
func (e *engine) expand(t *Term, limit int, b *telemetry.EventBuf, depth int) ([]Step, error) {
	s := e.sys
	var steps []Step
	var skipped, pruned int64
	emit := func(name string, nt *Term) error {
		norm, err := e.normalize(nt)
		if err != nil {
			return err
		}
		// Interned successors dedupe by pointer; successor lists are small,
		// so a scan over steps beats allocating a set per expansion.
		for i := range steps {
			if steps[i].Result == norm {
				return nil
			}
		}
		steps = append(steps, Step{Rule: name, Result: norm})
		if limit > 0 && len(steps) >= limit {
			return errStopWalk
		}
		return nil
	}
	// Compiled matchers share one pooled scratch across every position of
	// this expansion.
	cm := e.comp.getScratch()
	defer e.comp.putScratch(cm)
	var compiled, fallback int64
	applyAt := func(i int, t *Term, rebuild func(*Term) *Term) error {
		var began time.Time
		if e.rp != nil {
			began = time.Now()
		}
		var reps []*Term
		if e.comp.rules[i] != nil {
			reps = e.comp.rules[i].apply(t, s.Sig, cm, nil)
			compiled++
		} else {
			reps = s.Rules[i].apply(t, s.Sig, e.comp.layouts[i])
			fallback++
		}
		if e.rp != nil {
			e.rp.record(i, time.Since(began), len(reps))
		}
		for _, rep := range reps {
			if err := emit(s.Rules[i].Name, rebuild(rep)); err != nil {
				return err
			}
		}
		return nil
	}

	total := len(s.Rules)
	buf := getTriedBuf(len(e.idx.atConfig))
	defer putTriedBuf(buf)
	var walk func(t *Term, rebuild func(*Term) *Term) error
	walk = func(t *Term, rebuild func(*Term) *Term) error {
		// buf is shared across recursion levels; each level finishes
		// iterating its bucket before descending, so no level observes
		// another's filtered view. The index only selects candidates:
		// RulesSkippedByIndex accounting lives here, in one place, as total
		// minus whatever the bucket admitted.
		tried := e.idx.at(t, buf)
		skipped += int64(total - len(tried))
		for _, ir := range tried {
			if err := applyAt(ir.idx, t, rebuild); err != nil {
				return err
			}
		}
		if t.Kind == Op || t.Kind == Config {
			for i, a := range t.Args {
				if !e.idx.allPositions &&
					a.subtreeBits()&e.idx.needMask == 0 {
					pruned++ // no rule can match at any position inside a
					continue
				}
				i, a := i, a
				err := walk(a, func(na *Term) *Term {
					args := make([]*Term, len(t.Args))
					copy(args, t.Args)
					args[i] = na
					if t.Kind == Op {
						return rebuild(NewOp(t.Sym, args...))
					}
					return rebuild(NewConfig(args...))
				})
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := walk(t, func(nt *Term) *Term { return nt })
	e.rulesSkipped.Add(skipped)
	e.subtreesPruned.Add(pruned)
	e.compiledMatches.Add(compiled)
	e.fallbackMatches.Add(fallback)
	if b != nil && pruned > 0 {
		b.Record(telemetry.EvSubtreePruned, depth, t.Hash(), "", pruned)
	}
	if err != nil && err != errStopWalk {
		return nil, err
	}
	return steps, nil
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
	// Degraded reports that the soft memory budget (Options.MemBudget)
	// stopped the search after shedding the transition cache failed to bring
	// the estimate back under budget. Truncated is set alongside it, so the
	// verdict mapping is unchanged; Degraded distinguishes "out of memory
	// budget" from "out of state budget" for metrics and reports.
	Degraded bool
	// Stats is the final observability snapshot for this search.
	Stats *SearchStats
}

// Goal is a search target: a pattern with variables plus an optional
// semantic condition on the match (Maude's `such that`).
type Goal struct {
	// Pattern must match the state.
	Pattern *Term
	// Cond, if set, must accept some match of the pattern. It reads the
	// match like a rule callback does (Env, slots from SlotsOf(Pattern)).
	Cond func(e *Env) bool
}

// matches reports whether state satisfies the goal. l is the pattern's
// slot table, as for Rule.apply.
func (g Goal) matches(state *Term, sig Signature, l *slotLayout) bool {
	ok := false
	scratch := getBinding()
	defer putBinding(scratch)
	var env *Env
	match(g.Pattern, state, scratch, sig, func(b Binding) {
		if g.Cond == nil {
			ok = true
			return
		}
		if env == nil {
			env = envOver(l, g.Pattern)
		}
		env.fill(b)
		if g.Cond(env) {
			ok = true
		}
	})
	return ok
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
// the first applicable rule (after equational normalization) until no rule
// applies or maxSteps rule applications have been performed. Unlike Search,
// which explores all interleavings, Rewrite follows one deterministic
// execution — useful for simulating a single run of a specification. It
// returns the final term, the steps taken, and whether it stopped because
// the budget ran out.
// Rewrite only needs each state's first successor, so its engine walk stops
// at the first emission instead of enumerating the full set.
func (s *System) Rewrite(t *Term, maxSteps int) (*Term, []Step, bool, error) {
	e := s.engine(Options{}, nil)
	cur, err := e.normalize(t)
	if err != nil {
		return nil, nil, false, err
	}
	var trace []Step
	for steps := 0; maxSteps <= 0 || steps < maxSteps; steps++ {
		st, ok, err := e.first(cur)
		if err != nil {
			return nil, nil, false, err
		}
		if !ok {
			return cur, trace, false, nil
		}
		cur = st.Result
		trace = append(trace, st)
	}
	return cur, trace, true, nil
}
