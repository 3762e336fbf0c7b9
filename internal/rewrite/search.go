package rewrite

import (
	"context"
	"errors"
	"runtime/debug"
	"time"

	"privanalyzer/internal/telemetry"
)

// Options bounds and tunes a search. It is the single option surface shared
// by every layer of the checker: rosa.Query embeds it and core.Options
// carries one per query. The zero value is the default configuration —
// unbounded depth and states, breadth-first with visited-state
// deduplication — so existing callers constructing literals stay correct.
type Options struct {
	// MaxDepth bounds the number of rule applications along a path;
	// 0 means unbounded (the visited set still guarantees termination on
	// finite state spaces).
	MaxDepth int
	// MaxStates aborts the search after visiting this many distinct states;
	// 0 means unbounded. The budget is exact: StatesExplored never exceeds
	// it, and the goal-match and enqueue paths apply the same check.
	MaxStates int
	// Workers is ignored: every search runs on the goroutine that calls
	// it. Its last writer is perfbench/gen.go; ROADMAP items B and H delete
	// the field together with that write.
	Workers int
	// OnStats, if set, receives a progress snapshot after every completed
	// depth level and once more when the search returns. Each snapshot is a
	// deep copy — callbacks may retain or mutate it freely, from any
	// goroutine.
	OnStats func(*SearchStats)
	// StatsInterval throttles OnStats by wall-clock time: when positive,
	// snapshots fire at level and node boundaries only once the interval has
	// elapsed since the last one (the final snapshot always fires). Zero
	// keeps the default cadence — every completed depth level — which the
	// per-level progress tests rely on.
	StatsInterval time.Duration
	// Profile enables the per-rule cost profile: match attempts, firings,
	// and cumulative/max latency per rule, reported in SearchStats.
	// RuleProfile. Profiling times every rule-match attempt, which slows
	// the search measurably — leave it off except when diagnosing rule
	// cost (the search-engine analogue of a query profiler).
	Profile bool
}

// MaxWorkers is the largest worker count the v1 wire field and the query-file
// directive accept. Both still range-check the value, so no old client sees a
// change, and then ignore it.
const MaxWorkers = 1024

// SearchStats is the engine's observability surface: what the search did,
// at what rate, and where the state space bulged. A final snapshot is
// attached to every SearchResult; Options.OnStats streams per-level
// snapshots for progress reporting.
type SearchStats struct {
	// StatesExplored counts distinct states visited so far.
	StatesExplored int
	// Depth is the deepest completed BFS level (0 = only the initial
	// state).
	Depth int
	// Frontier holds the breadth-first frontier size per depth
	// (Frontier[d] = number of states expanded at depth d).
	Frontier []int
	// RuleFirings counts, per rule name, how many successor states the
	// rule generated (before visited-state deduplication).
	RuleFirings map[string]int
	// DedupHits counts successors rejected because the state was already
	// visited.
	DedupHits int
	// Elapsed is the wall-clock search time so far.
	Elapsed time.Duration
	// RuleProfile holds the per-rule cost profile; nil unless
	// Options.Profile was set.
	RuleProfile map[string]*RuleCost
	// RulesSkippedByIndex counts rule attempts the successor index avoided
	// (rules filtered out at a position before matching was tried).
	RulesSkippedByIndex int64
	// SubtreesPruned counts element positions below the root that the
	// engine never tried: rules apply only at the root configuration, so
	// each expansion skips every one of the state's elements.
	SubtreesPruned int64
	// CacheHits and CacheMisses count transition-cache lookups during this
	// search. Hits include states whose successor sets were computed by an
	// earlier query sharing the same System. Both zero when no cache is
	// attached.
	CacheHits, CacheMisses int64
	// CompiledRules is how many of the System's rules have compiled
	// matchers: all of them, since a System with a rule outside the
	// compiled fragment does not search.
	CompiledRules int
	// CompiledMatches counts this search's rule attempts, every one served
	// by a compiled matcher; plus RulesSkippedByIndex it accounts for every
	// rule considered at every expanded state. FallbackMatches is always 0:
	// no rule attempt runs through the generic matcher. It stays because
	// the v1 wire schema reports it.
	CompiledMatches, FallbackMatches int64
	// Final marks the unconditional end-of-search snapshot OnStats always
	// receives, distinguishing it from interval-throttled progress ticks.
	// Progress printers use it to avoid emitting a stale "final" line for
	// searches that finish before their first StatsInterval tick.
	Final bool
}

// RuleCost is one rule's row of the search profile.
type RuleCost struct {
	// Attempts counts how many times the rule was tried against a state's
	// root configuration (matched or not).
	Attempts int64
	// Firings counts replacement terms the rule produced: before the
	// successor-level and visited-set deduplication, so it can exceed
	// SearchStats.RuleFirings for the same rule, but after the compiled
	// matcher skips a repeated subject element (see compiledRule.apply),
	// so it counts fewer terms than the generic matcher would build.
	Firings int64
	// Cumulative is the total wall-clock time spent matching and applying
	// the rule; Max is the slowest single attempt.
	Cumulative, Max time.Duration
}

// Clone returns a deep copy of the stats: mutating the copy (or the
// original) never affects the other. Nil-safe.
func (st *SearchStats) Clone() *SearchStats {
	if st == nil {
		return nil
	}
	cp := *st
	cp.Frontier = append([]int(nil), st.Frontier...)
	if st.RuleFirings != nil {
		cp.RuleFirings = make(map[string]int, len(st.RuleFirings))
		for name, n := range st.RuleFirings {
			cp.RuleFirings[name] = n
		}
	}
	if st.RuleProfile != nil {
		cp.RuleProfile = make(map[string]*RuleCost, len(st.RuleProfile))
		for name, rc := range st.RuleProfile {
			c := *rc
			cp.RuleProfile[name] = &c
		}
	}
	return &cp
}

// ruleProfiler aggregates per-rule cost for one search. Rules are addressed
// by their index in System.Rules.
type ruleProfiler struct {
	names []string
	cells []RuleCost
}

func newRuleProfiler(rules []Rule) *ruleProfiler {
	rp := &ruleProfiler{names: make([]string, len(rules)), cells: make([]RuleCost, len(rules))}
	for i := range rules {
		rp.names[i] = rules[i].Name
	}
	return rp
}

// record notes one attempt of rule i that produced n replacements in d.
func (rp *ruleProfiler) record(i int, d time.Duration, n int) {
	c := &rp.cells[i]
	c.Attempts++
	c.Firings += int64(n)
	c.Cumulative += d
	c.Max = max(c.Max, d)
}

// profile materializes the per-rule map for SearchStats.
func (rp *ruleProfiler) profile() map[string]*RuleCost {
	out := make(map[string]*RuleCost, len(rp.names))
	for i, name := range rp.names {
		c := &rp.cells[i]
		if c.Attempts == 0 {
			continue
		}
		rc := out[name]
		if rc == nil {
			rc = &RuleCost{}
			out[name] = rc
		}
		rc.Attempts += c.Attempts
		rc.Firings += c.Firings
		rc.Cumulative += c.Cumulative
		rc.Max = max(rc.Max, c.Max)
	}
	return out
}

// StatesPerSec is the exploration rate.
func (st *SearchStats) StatesPerSec() float64 {
	if st == nil || st.Elapsed <= 0 {
		return 0
	}
	return float64(st.StatesExplored) / st.Elapsed.Seconds()
}

// DedupRate is the fraction of generated successors rejected as already
// visited.
func (st *SearchStats) DedupRate() float64 {
	gen := st.StatesExplored + st.DedupHits
	if gen == 0 {
		return 0
	}
	return float64(st.DedupHits) / float64(gen)
}

// node is one entry of the search frontier. Nodes carry parent links
// instead of copied path slices, so enqueuing is O(1) and the witness is
// materialized only when a goal is found.
type node struct {
	state  *Term
	rule   string // rule that produced state; "" for the root
	parent *node
}

// witness materializes the rule path from the root to n.
func (n *node) witness() []Step {
	var out []Step
	for ; n != nil && n.parent != nil; n = n.parent {
		out = append(out, Step{Rule: n.rule, Result: n.state})
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// SearchContext runs Maude-style `search init =>* goal` over the rule
// transition graph, bounded by opts and cancellable through ctx, and
// returns the shortest witness when the goal is reachable. The search
// is a sequential breadth-first walk on the calling goroutine, so verdicts,
// witnesses, StatesExplored and every SearchStats counter are a pure
// function of the query, the options and the transition cache's content.
//
// Cancellation (or a context deadline — the analogue of the paper's
// five-hour wall clock limit) stops the search promptly and returns a
// result with Interrupted set and no error; callers map it to the same
// Unknown verdict as a state-budget truncation.
//
// Error contract: a setup failure (a rule or the goal outside the compiled
// fragment) returns (nil, err) before any state is explored.
// A panic expanding a state returns a non-nil result with partial stats
// and Interrupted set, alongside a *SearchError carrying the state's
// attribution.
// Supervisors (rosa.Query) map the latter to the Unknown verdict with the
// error recorded and keep the analysis running.
func (s *System) SearchContext(ctx context.Context, init *Term, goal Goal, opts Options) (*SearchResult, error) {
	var rp *ruleProfiler
	if opts.Profile {
		rp = newRuleProfiler(s.Rules)
	}
	e, err := s.engine(rp)
	if err != nil {
		return nil, err
	}
	// Goal states are recognised the moment they are generated, as Maude's
	// search does, so a found verdict does not pay for the whole frontier.
	if e.goalFn, err = e.goalChecker(goal); err != nil {
		return nil, err
	}
	start := Intern(init)
	stats := &SearchStats{RuleFirings: make(map[string]int)}
	began := time.Now()
	res := &SearchResult{StatesExplored: 1, Stats: stats}
	refresh := func() {
		stats.StatesExplored = res.StatesExplored
		stats.Elapsed = time.Since(began)
		stats.RulesSkippedByIndex = e.rulesSkipped
		stats.SubtreesPruned = e.subtreesPruned
		stats.CacheHits = e.cacheHits
		stats.CacheMisses = e.cacheMisses
		stats.CompiledRules = len(e.comp.rules)
		stats.CompiledMatches = e.compiledMatches
		if rp != nil {
			stats.RuleProfile = rp.profile()
		}
	}
	// progress fires OnStats at a level or node boundary, throttled by
	// StatsInterval; refresh work is skipped entirely for throttled calls.
	// The clock starts at search start, so the first snapshot also waits a
	// full interval (finish fires unconditionally either way).
	lastFire := time.Now()
	progress := func() {
		if opts.OnStats == nil {
			return
		}
		if opts.StatsInterval > 0 && time.Since(lastFire) < opts.StatsInterval {
			return
		}
		refresh()
		lastFire = time.Now()
		opts.OnStats(stats.Clone())
	}
	finish := func() (*SearchResult, error) {
		refresh()
		if opts.OnStats != nil {
			final := stats.Clone()
			final.Final = true
			opts.OnStats(final)
		}
		telemetry.Logger(ctx).Debug("search done",
			"component", "rewrite",
			"found", res.Found,
			"truncated", res.Truncated,
			"interrupted", res.Interrupted,
			"states", res.StatesExplored,
			"depth", stats.Depth,
			"elapsed", stats.Elapsed)
		return res, nil
	}

	if e.goalFn(start) {
		res.Found = true
		res.Final = start
		return finish()
	}
	if ctx.Err() != nil {
		res.Interrupted = true
		return finish()
	}

	runErr := e.searchBFS(ctx, start, opts, res, stats, progress)
	if runErr != nil {
		var serr *SearchError
		if !errors.As(runErr, &serr) {
			return nil, runErr
		}
		// Fault barrier: the search died but the process (and the partial
		// stats) survive. Interrupted keeps a caller that ignores the error
		// from reading the partial result as a completed Safe verdict.
		res.Interrupted = true
	}
	r, _ := finish()
	return r, runErr
}

// safeSuccessors is successors behind the supervisor's fault barrier: it
// converts a panic inside successor expansion into a typed *SearchError
// carrying the expanded state's interned hash. One poisoned state costs its
// query a verdict, never the process the analysis runs in.
func (e *engine) safeSuccessors(t *Term) (steps []Step, err error) {
	defer func() {
		if r := recover(); r != nil {
			steps = nil
			err = &SearchError{StateHash: t.Hash(), Panic: r, Stack: debug.Stack()}
		}
	}()
	return e.successors(t), nil
}

// searchBFS is the breadth-first engine. It expands one frontier node and
// merges its successors — visited-set dedup, state budget, goal check —
// before it expands the next, so a goal or the budget stops the search at
// the successor that reached it, with nothing expanded past it.
//
// progress fires OnStats (throttled by StatsInterval) after each completed
// level, and additionally after each node when an interval is set.
func (e *engine) searchBFS(ctx context.Context, start *Term, opts Options, res *SearchResult, stats *SearchStats, progress func()) error {
	// States are interned, so the visited set keys on canonical pointers.
	visited := map[*Term]struct{}{start: {}}
	frontier := []*node{{state: start}}

	for depth := 0; len(frontier) > 0; depth++ {
		if opts.MaxDepth > 0 && depth >= opts.MaxDepth {
			return nil
		}
		if ctx.Err() != nil {
			res.Interrupted = true
			return nil
		}
		stats.Frontier = append(stats.Frontier, len(frontier))
		stats.Depth = depth

		var nextFrontier []*node
		for _, n := range frontier {
			if ctx.Err() != nil {
				res.Interrupted = true
				return nil
			}
			steps, err := e.safeSuccessors(n.state)
			if err != nil {
				return err
			}
			for _, st := range steps {
				stats.RuleFirings[st.Rule]++
				if _, seen := visited[st.Result]; seen {
					stats.DedupHits++
					continue
				}
				visited[st.Result] = struct{}{}
				if opts.MaxStates > 0 && res.StatesExplored >= opts.MaxStates {
					res.Truncated = true
					return nil
				}
				res.StatesExplored++
				child := &node{state: st.Result, rule: st.Rule, parent: n}
				if e.goalFn(st.Result) {
					res.Found = true
					res.Final = st.Result
					res.Witness = child.witness()
					return nil
				}
				nextFrontier = append(nextFrontier, child)
			}
			if opts.StatsInterval > 0 {
				progress()
			}
		}
		frontier = nextFrontier
		progress()
	}
	return nil
}
