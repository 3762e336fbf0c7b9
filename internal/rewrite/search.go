package rewrite

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privanalyzer/internal/faultinject"
	"privanalyzer/internal/obs"
	"privanalyzer/internal/telemetry"
)

// Options bounds and tunes a search. It is the single option surface shared
// by every layer of the checker: rosa.Query embeds it and core.Options
// carries one per query. The zero value is the default configuration —
// unbounded depth and states, visited-state deduplication ON (the flag is
// inverted to NoDedup precisely so that composite literals and the zero
// value keep Maude's semantics), breadth-first order, and one worker per
// CPU — so existing callers constructing literals stay correct.
type Options struct {
	// MaxDepth bounds the number of rule applications along a path;
	// 0 means unbounded (the visited set still guarantees termination on
	// finite state spaces).
	MaxDepth int
	// MaxStates aborts the search after visiting this many distinct states;
	// 0 means unbounded. The budget is exact: StatesExplored never exceeds
	// it, and the goal-match and enqueue paths apply the same check.
	MaxStates int
	// NoDedup disables visited-state deduplication (ablation only). The
	// inverted sense keeps the zero value meaning "dedup on".
	NoDedup bool
	// DepthFirst explores the frontier LIFO instead of FIFO. BFS (the
	// default, what Maude's search does) finds shortest witnesses and
	// reaches quick verdicts on possible attacks; the DFS ablation shows
	// why that matters. DepthFirst searches always run sequentially.
	DepthFirst bool
	// Workers is the number of goroutines expanding each breadth-first
	// depth level: 0 means one per CPU (runtime.GOMAXPROCS), 1 forces the
	// sequential engine. Any value yields verdicts, witnesses, and state
	// counts identical to Workers=1 — the frontier is expanded level-
	// synchronized and merged in a fixed order.
	Workers int
	// OnStats, if set, receives a progress snapshot after every completed
	// depth level and once more when the search returns. Each snapshot is a
	// deep copy — callbacks may retain or mutate it freely, from any
	// goroutine.
	OnStats func(*SearchStats)
	// StatsInterval throttles OnStats by wall-clock time: when positive,
	// snapshots fire at level and chunk boundaries only once the interval has
	// elapsed since the last one (the final snapshot always fires). Zero
	// keeps the default cadence — every completed depth level — which the
	// per-level progress tests rely on.
	StatsInterval time.Duration
	// Recorder, if set, captures an event-level journal of the search —
	// level starts, state expansions, rule firings, cache hits and misses,
	// dedups, prunes, goal matches — into per-worker flight-recorder rings
	// (see telemetry.Recorder). Nil disables recording; the hooks then cost
	// one nil check each (pinned by BenchmarkRecorder).
	Recorder *telemetry.Recorder
	// Profile enables the per-rule cost profile: match attempts, firings,
	// and cumulative/max latency per rule, reported in SearchStats.
	// RuleProfile. Profiling times every rule-match attempt, which slows
	// the search measurably — leave it off except when diagnosing rule
	// cost (the search-engine analogue of a query profiler).
	Profile bool
	// NoIndex disables rule indexing: the successor walk tries every rule
	// at every subterm position instead of consulting the per-System index.
	// Inverted (like NoDedup) so the zero value keeps indexing on; exists
	// for ablation and the differential tests.
	NoIndex bool
	// NoIntern disables term interning (hash-consing). Interned searches
	// key their visited sets and caches on canonical pointers; disabling it
	// falls back to structural hashing everywhere. Disabling interning also
	// disables the transition cache, whose keys are interned pointers.
	NoIntern bool
	// NoCache disables the cross-query transition cache even when the
	// System carries one (System.Cache); successor sets are recomputed per
	// search.
	NoCache bool
	// NoCompile disables the compiled rule matchers (compile.go): every rule
	// attempt runs through the generic interpreter instead of its
	// specialized matcher. Results are byte-identical either way — the
	// compiled path's strict order-equivalence contract, pinned by the
	// differential suite — so the toggle exists for ablation, benchmarking
	// the interpreter baseline, and bisecting. Inverted (like NoDedup) so
	// the zero value compiles.
	NoCompile bool
	// Escalate tunes adaptive budget escalation for callers that run the
	// query through an escalating supervisor (rosa.Checker): attempts start
	// at Escalate.Start states and grow geometrically until the verdict
	// resolves or the cap is hit. SearchContext itself always runs exactly
	// one attempt at MaxStates — the retry loop lives in the supervisor,
	// where the shared TransitionCache makes re-exploration cheap. Zero
	// fields take the supervisor's defaults.
	Escalate Escalation
	// NoEscalate forces the legacy one-shot search at the full MaxStates
	// budget in supervisors that would otherwise escalate. Inverted (like
	// NoDedup) so the zero value escalates.
	NoEscalate bool
	// MemBudget is a soft memory bound, in bytes, over the search's dominant
	// structures (interner, transition cache, frontier). On the first breach
	// the engine sheds the transition cache and continues with uncached
	// expansion (SearchStats.DegradedAt records where); on the second it
	// stops with a truncated, Degraded result and partial stats. 0 disables
	// the watch. The estimate is deliberately coarse (see memEstimate): the
	// budget is a failsafe against runaway frontiers, not an allocator
	// ledger.
	MemBudget int64
	// Faults is the deterministic fault-injection plan for chaos tests
	// (internal/faultinject); nil — the production value — injects nothing.
	Faults *faultinject.Plan
	// NoCost disables the per-query cost ledger (SearchStats.Cost): the
	// supervisor skips the obs.Meter bracket and Cost stays nil. Inverted
	// (like NoDedup) so the zero value keeps accounting on; exists for
	// ablation and for pinning the disabled path's overhead. The engine
	// itself never reads this — the meter lives in the rosa supervisor,
	// which owns the per-query boundary.
	NoCost bool
}

// Escalation parameterizes adaptive budget escalation (Options.Escalate):
// MaxStates grows geometrically from Start by Factor up to the cap. Zero
// fields mean "supervisor default" individually, so callers can pin just the
// start or just the factor.
type Escalation struct {
	// Start is the first attempt's MaxStates budget.
	Start int
	// Factor multiplies the budget between attempts.
	Factor int
	// Max caps the budget ladder; 0 means the query's MaxStates (or the
	// supervisor's default budget when that is unset too).
	Max int
}

// DefaultOptions returns the default search configuration. It is the
// constructor counterpart of the zero value; both mean bounded-only-by-
// space BFS with deduplication on and one worker per CPU.
func DefaultOptions() Options { return Options{} }

// MaxWorkers caps the search workers per depth level. Callers that take a
// worker count from outside input reject larger values; the engine clamps
// to it, so no count can overflow the merge's chunk size.
const MaxWorkers = 1024

// workers resolves the effective worker count.
func (o Options) workers() int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, MaxWorkers)
}

// SearchStats is the engine's observability surface: what the search did,
// at what rate, and where the state space bulged. A final snapshot is
// attached to every SearchResult; Options.OnStats streams per-level
// snapshots for progress reporting.
type SearchStats struct {
	// StatesExplored counts distinct states visited so far.
	StatesExplored int
	// Depth is the deepest completed BFS level (0 = only the initial
	// state). Unset for depth-first searches.
	Depth int
	// Frontier holds the breadth-first frontier size per depth
	// (Frontier[d] = number of states expanded at depth d). Nil for
	// depth-first searches.
	Frontier []int
	// RuleFirings counts, per rule name, how many successor states the
	// rule generated (before visited-state deduplication).
	RuleFirings map[string]int
	// DedupHits counts successors rejected because the state was already
	// visited.
	DedupHits int
	// Elapsed is the wall-clock search time so far.
	Elapsed time.Duration
	// Workers is the number of expansion workers used.
	Workers int
	// RuleProfile holds the per-rule cost profile; nil unless
	// Options.Profile was set.
	RuleProfile map[string]*RuleCost
	// RulesSkippedByIndex counts rule attempts the successor index avoided
	// (rules filtered out at a position before matching was tried). Zero
	// when indexing is disabled.
	RulesSkippedByIndex int64
	// SubtreesPruned counts subterm positions never visited because the
	// subtree bitmap proved no rule could match inside.
	SubtreesPruned int64
	// CacheHits and CacheMisses count transition-cache lookups during this
	// search. Hits include states whose successor sets were computed by an
	// earlier query sharing the same System. Both zero when no cache is
	// attached or caching is disabled.
	CacheHits, CacheMisses int64
	// CompiledRules is how many of the System's rules have compiled
	// matchers (the rest fall back to the interpreter per attempt). Zero
	// when compilation is disabled (Options.NoCompile).
	CompiledRules int
	// CompiledMatches and FallbackMatches split this search's rule attempts
	// by engine: attempts served by a compiled matcher vs by the generic
	// interpreter. Their sum plus RulesSkippedByIndex accounts for every
	// candidate rule×position pair the walk considered.
	CompiledMatches, FallbackMatches int64
	// InternerSize is the process-global interned-term count when the
	// snapshot was taken (an occupancy gauge, not a per-search delta).
	InternerSize int64
	// DroppedEvents is the attached flight recorder's overwrite count
	// (telemetry.Recorder.Dropped) at snapshot time. Non-zero means the
	// journal was truncated to its most recent events — `rosa -explain`
	// columns may read "-" and journal determinism no longer holds. Zero
	// when no recorder is attached.
	DroppedEvents int64
	// DegradedAt is the StatesExplored count at which the soft memory budget
	// first forced degradation (transition cache shed, uncached expansion
	// from then on); 0 when the search never degraded.
	DegradedAt int
	// Final marks the unconditional end-of-search snapshot OnStats always
	// receives, distinguishing it from interval-throttled progress ticks.
	// Progress printers use it to avoid emitting a stale "final" line for
	// searches that finish before their first StatsInterval tick.
	Final bool
	// Cost is the query-level resource ledger (wall, CPU, allocation plus
	// the engine counters in cost-vector form), filled by the escalating
	// supervisor around the whole query — escalation attempts included — not
	// by the engine itself. Nil for bare SearchContext calls, for per-level
	// progress snapshots, and when Options.NoCost disabled accounting.
	Cost *obs.QueryCost
}

// RuleCost is one rule's row of the search profile.
type RuleCost struct {
	// Attempts counts how many times the rule was tried against a subterm
	// position (matched or not).
	Attempts int64
	// Firings counts replacement terms the rule produced (before the
	// successor-level and visited-set deduplication, so it can exceed
	// SearchStats.RuleFirings for the same rule).
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
	cp.Cost = st.Cost.Clone()
	return &cp
}

// ruleProfiler aggregates per-rule cost with atomics, so concurrent
// expansion workers record without locks. Rules are addressed by their index
// in System.Rules.
type ruleProfiler struct {
	names []string
	cells []profCell
}

type profCell struct {
	attempts, firings, cumNS, maxNS atomic.Int64
}

func newRuleProfiler(rules []Rule) *ruleProfiler {
	rp := &ruleProfiler{names: make([]string, len(rules)), cells: make([]profCell, len(rules))}
	for i := range rules {
		rp.names[i] = rules[i].Name
	}
	return rp
}

// record notes one attempt of rule i that produced n replacements in d.
func (rp *ruleProfiler) record(i int, d time.Duration, n int) {
	c := &rp.cells[i]
	c.attempts.Add(1)
	c.firings.Add(int64(n))
	ns := d.Nanoseconds()
	c.cumNS.Add(ns)
	for {
		cur := c.maxNS.Load()
		if ns <= cur || c.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// profile materializes the per-rule map for SearchStats.
func (rp *ruleProfiler) profile() map[string]*RuleCost {
	out := make(map[string]*RuleCost, len(rp.names))
	for i, name := range rp.names {
		c := &rp.cells[i]
		attempts := c.attempts.Load()
		if attempts == 0 {
			continue
		}
		rc := out[name]
		if rc == nil {
			rc = &RuleCost{}
			out[name] = rc
		}
		rc.Attempts += attempts
		rc.Firings += c.firings.Load()
		rc.Cumulative += time.Duration(c.cumNS.Load())
		if m := time.Duration(c.maxNS.Load()); m > rc.Max {
			rc.Max = m
		}
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

// CompiledShare is the fraction of rule attempts served by compiled
// matchers (0 when nothing was attempted).
func (st *SearchStats) CompiledShare() float64 {
	total := st.CompiledMatches + st.FallbackMatches
	if total == 0 {
		return 0
	}
	return float64(st.CompiledMatches) / float64(total)
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

// String renders the stats as a compact multi-line report (the cmd/rosa
// -stats and cmd/privanalyzer -stats output).
func (st *SearchStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "states explored:  %d (%.0f states/sec, %s elapsed, %d workers)\n",
		st.StatesExplored, st.StatesPerSec(), st.Elapsed.Round(time.Microsecond), st.Workers)
	fmt.Fprintf(&b, "dedup hits:       %d (%.1f%% of generated successors)\n",
		st.DedupHits, 100*st.DedupRate())
	if st.RulesSkippedByIndex > 0 || st.SubtreesPruned > 0 {
		fmt.Fprintf(&b, "rule index:       %d attempts skipped, %d subtrees pruned\n",
			st.RulesSkippedByIndex, st.SubtreesPruned)
	}
	if st.CompiledMatches+st.FallbackMatches > 0 {
		fmt.Fprintf(&b, "compiled match:   %d rules compiled; %d compiled / %d interpreted attempts (%.1f%% compiled)\n",
			st.CompiledRules, st.CompiledMatches, st.FallbackMatches, 100*st.CompiledShare())
	}
	if st.CacheHits+st.CacheMisses > 0 {
		fmt.Fprintf(&b, "transition cache: %d hits, %d misses (%.1f%% hit rate)\n",
			st.CacheHits, st.CacheMisses,
			100*float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses))
	}
	if st.InternerSize > 0 {
		fmt.Fprintf(&b, "interner:         %d terms\n", st.InternerSize)
	}
	if st.DroppedEvents > 0 {
		fmt.Fprintf(&b, "recorder:         %d events dropped (journal truncated to most recent)\n", st.DroppedEvents)
	}
	if st.DegradedAt > 0 {
		fmt.Fprintf(&b, "memory budget:    degraded at %d states (transition cache shed)\n", st.DegradedAt)
	}
	if len(st.Frontier) > 0 {
		fmt.Fprintf(&b, "frontier by depth:")
		for d, n := range st.Frontier {
			fmt.Fprintf(&b, " %d:%d", d, n)
		}
		b.WriteByte('\n')
	}
	if len(st.RuleFirings) > 0 {
		names := make([]string, 0, len(st.RuleFirings))
		for name := range st.RuleFirings {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "rule firings:    ")
		for _, name := range names {
			fmt.Fprintf(&b, " %s:%d", name, st.RuleFirings[name])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// node is one entry of the search frontier. Nodes carry parent links
// instead of copied path slices, so enqueuing is O(1) and the witness is
// materialized only when a goal is found.
type node struct {
	state  *Term
	rule   string // rule that produced state; "" for the root
	parent *node
	depth  int
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
// transition graph, bounded by opts and cancellable through ctx. Breadth-
// first searches expand each depth frontier with opts.Workers goroutines
// and merge results in frontier order, so verdicts, witnesses, and
// StatesExplored are deterministic and identical to a sequential run.
//
// Cancellation (or a context deadline — the analogue of the paper's
// five-hour wall clock limit) stops the search promptly and returns a
// result with Interrupted set and no error; callers map it to the same
// Unknown verdict as a state-budget truncation.
//
// Error contract: a setup failure (equations diverging) returns (nil, err).
// A fault during the search — a worker panic, a successor error, an injected
// fault — returns a non-nil result with partial stats and Interrupted set,
// alongside a *SearchError carrying the state and worker attribution.
// Supervisors (rosa.Query) map the latter to the Unknown verdict with the
// error recorded and keep the analysis running.
func (s *System) SearchContext(ctx context.Context, init *Term, goal Goal, opts Options) (*SearchResult, error) {
	var rp *ruleProfiler
	if opts.Profile {
		rp = newRuleProfiler(s.Rules)
	}
	e := s.engine(opts, rp)
	if opts.Faults != nil && opts.Faults.CancelAtLevel > 0 {
		// The cancel-mid-level fault needs a context the engine itself can
		// cancel without touching the caller's (sibling queries sharing the
		// parent context must be unaffected).
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		ctx = cctx
		e.faultCancel = cancel
	}
	start, err := e.normalize(init)
	if err != nil {
		return nil, err
	}
	stats := &SearchStats{RuleFirings: make(map[string]int), Workers: opts.workers()}
	if opts.DepthFirst {
		stats.Workers = 1
	}
	began := time.Now()
	res := &SearchResult{StatesExplored: 1, Stats: stats}
	refresh := func() {
		stats.StatesExplored = res.StatesExplored
		stats.Elapsed = time.Since(began)
		stats.RulesSkippedByIndex = e.rulesSkipped.Load()
		stats.SubtreesPruned = e.subtreesPruned.Load()
		stats.CacheHits = e.cacheHits.Load()
		stats.CacheMisses = e.cacheMisses.Load()
		if e.comp != nil {
			stats.CompiledRules = e.comp.count
		}
		stats.CompiledMatches = e.compiledMatches.Load()
		stats.FallbackMatches = e.fallbackMatches.Load()
		if e.intern {
			stats.InternerSize = InternerSize()
		}
		stats.DroppedEvents = e.rec.Dropped()
		if rp != nil {
			stats.RuleProfile = rp.profile()
		}
	}
	// progress fires OnStats at a level or chunk boundary, throttled by
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

	// Goal states are recognised the moment they are generated, as Maude's
	// search does, so a found verdict does not pay for the whole frontier.
	e.goalFn = e.goalChecker(goal)
	if e.goalFn(start) {
		res.Found = true
		res.Final = start
		if e.rec != nil {
			b := e.rec.Buf(e.search, 0)
			b.Record(telemetry.EvGoalMatched, 0, start.Hash(), "", 1)
			b.Flush()
		}
		return finish()
	}
	if ctx.Err() != nil {
		res.Interrupted = true
		return finish()
	}

	var runErr error
	if opts.DepthFirst {
		runErr = e.searchDFS(ctx, start, goal, opts, res, stats, progress)
	} else {
		runErr = e.searchBFS(ctx, start, goal, opts, res, stats, progress)
	}
	if runErr != nil {
		var serr *SearchError
		if !errors.As(runErr, &serr) {
			return nil, runErr
		}
		// Fault barrier: the search died but the process (and the partial
		// stats) survive. Interrupted keeps a caller that ignores the error
		// from reading the partial result as a completed Safe verdict.
		res.Interrupted = true
	} else if res.Interrupted && e.injCancelled {
		// The interruption was the fault plan's own cancellation, not the
		// caller's: report it as a search fault so chaos tests (and the
		// verdict mapping) see the injected failure, not a clean timeout.
		runErr = &SearchError{Err: faultinject.ErrInjectedCancel}
	}
	r, _ := finish()
	return r, runErr
}

// visitedSet is the search's visited-state set. Interned searches key on
// canonical pointers (one map probe, no structural work); uninterned
// searches fall back to the hash-bucketed structural set. Both implement
// the same equivalence relation, so dedup decisions are identical.
type visitedSet struct {
	ptrs map[*Term]struct{} // non-nil when interning
	set  *stateSet          // non-nil otherwise
}

func newVisitedSet(intern bool) *visitedSet {
	if intern {
		return &visitedSet{ptrs: make(map[*Term]struct{})}
	}
	return &visitedSet{set: newStateSet()}
}

// add inserts t and reports whether it was absent (true = newly added).
func (v *visitedSet) add(t *Term) bool {
	if v.ptrs != nil {
		if _, ok := v.ptrs[t]; ok {
			return false
		}
		v.ptrs[t] = struct{}{}
		return true
	}
	return v.set.add(t)
}

// expansion is one frontier node's precomputed successor set. Successor
// generation is pure, so workers compute it ahead of the deterministic
// merge; goal matching stays in the merge so it runs once per *new* state,
// never on deduplicated successors. Recorder events produced during the
// expansion travel with it — committed to the journal only if the merge
// keeps the node, discarded with it otherwise (an expansion racing past an
// early exit leaves no trace, so journals are worker-count-independent) —
// and cached distinguishes cache answers from fresh expansions so the merge
// alone inserts into the shared transition cache.
type expansion struct {
	steps  []Step
	events []telemetry.Event
	err    error
	cached bool
}

// safeSuccessors is successorsFor behind the supervisor's fault barrier: it
// consults the fault-injection plan, then converts a panic inside successor
// expansion — injected or real — into a typed *SearchError carrying the
// expanded state's interned hash and the worker id. One poisoned state costs
// its query a verdict, never the process the analysis runs in.
func (e *engine) safeSuccessors(t *Term, depth, worker int, b *telemetry.EventBuf) (steps []Step, cached bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			steps, cached = nil, false
			err = &SearchError{StateHash: t.Hash(), Worker: worker, Panic: r, Stack: debug.Stack()}
		}
	}()
	if ferr := e.faults.BeforeExpansion(t.Hash()); ferr != nil {
		return nil, false, &SearchError{StateHash: t.Hash(), Worker: worker, Err: ferr}
	}
	steps, cached, err = e.successorsFor(t, depth, b)
	if err != nil {
		err = &SearchError{StateHash: t.Hash(), Worker: worker, Err: err}
	}
	return steps, cached, err
}

// Rough per-unit byte costs for the memory watch: an interned term (struct,
// memo fields, intern-table slot), one cached successor entry (key, slice,
// steps), one frontier node. Deliberately coarse; the watch is a failsafe,
// not an allocator ledger, and the constants only need the right order of
// magnitude to trip before the kernel's OOM killer does.
const (
	bytesPerInternedTerm = 192
	bytesPerCachedState  = 256
	bytesPerFrontierNode = 96
)

// memEstimate approximates the search's resident bytes across its dominant
// structures for the Options.MemBudget watch.
func (e *engine) memEstimate(frontierLen int) int64 {
	var est int64
	if e.intern {
		est += InternerSize() * bytesPerInternedTerm
	}
	est += e.cache.Len() * bytesPerCachedState
	est += int64(frontierLen) * bytesPerFrontierNode
	return est
}

// checkMemBudget runs the degradation ladder at a level (or DFS stride)
// boundary: under budget does nothing; the first breach sheds the transition
// cache and switches to uncached expansion; a breach after that stops the
// search with a truncated, degraded result. Reports whether the search must
// stop.
func (e *engine) checkMemBudget(opts Options, depth, frontierLen int, res *SearchResult, stats *SearchStats) bool {
	if opts.MemBudget <= 0 {
		return false
	}
	est := e.memEstimate(frontierLen)
	if est <= opts.MemBudget {
		return false
	}
	// Both rungs of the ladder are journal (and live-stream) events: a
	// degraded query is exactly the kind a fleet operator needs to spot
	// while it runs, not after.
	e.rec.CommitEvent(telemetry.EvDegraded, e.search, depth, 0, "", est)
	if stats.DegradedAt == 0 {
		stats.DegradedAt = res.StatesExplored
		e.cache.Shed()
		e.cache = nil // uncached expansion from here on; cachePut no-ops too
		return false
	}
	res.Truncated = true
	res.Degraded = true
	return true
}

// searchBFS is the level-synchronized parallel breadth-first engine.
//
// Each depth level is processed in chunks: workers expand one chunk of
// frontier nodes concurrently, then the merge replays that chunk in
// frontier order. Chunking bounds the work wasted past an early exit —
// when the goal or the state budget lands mid-level, at most one chunk of
// successors was expanded beyond it, instead of the whole level (which for
// budget-truncated searches is roughly half the state space). Sequential
// runs use chunk size 1 and are exactly the classic BFS loop.
//
// progress fires OnStats (throttled by StatsInterval) after each completed
// level, and additionally at chunk boundaries when an interval is set.
func (e *engine) searchBFS(ctx context.Context, start *Term, goal Goal, opts Options, res *SearchResult, stats *SearchStats, progress func()) error {
	visited := newVisitedSet(e.intern)
	if !opts.NoDedup {
		visited.add(start)
	}
	frontier := []*node{{state: start}}

	// mb buffers the merge goroutine's own events (level starts, rule
	// firings, dedups, goal matches) on worker track 0; flushed per chunk
	// and, for the early-exit returns, by the deferred flush.
	mb := e.rec.Buf(e.search, 0)
	defer mb.Flush()

	w := opts.workers()
	chunk := 1
	if w > 1 {
		// A few nodes per worker amortizes coordination; small enough that
		// an early exit discards little work.
		chunk = w * 4
	}

	for depth := 0; len(frontier) > 0; depth++ {
		if opts.MaxDepth > 0 && depth >= opts.MaxDepth {
			return nil
		}
		if ctx.Err() != nil {
			res.Interrupted = true
			return nil
		}
		if e.checkMemBudget(opts, depth, len(frontier), res, stats) {
			return nil
		}
		stats.Frontier = append(stats.Frontier, len(frontier))
		stats.Depth = depth
		mb.Record(telemetry.EvLevelStart, depth, 0, "", int64(len(frontier)))
		if e.faults.CancelLevel(depth) && e.faultCancel != nil {
			// Fire after the level is announced so the level's own workers
			// observe the cancellation mid-flight — the race the chaos tests
			// are shaking out.
			e.injCancelled = true
			e.faultCancel()
		}

		var nextFrontier []*node
		for lo := 0; lo < len(frontier); lo += chunk {
			hi := min(lo+chunk, len(frontier))

			// Expand frontier[lo:hi] concurrently. Workers claim indices
			// from a shared counter; each expansion lands in its own slot,
			// so the merge below can replay them in frontier order.
			exps := make([]expansion, hi-lo)
			expand := func(i, wk int) {
				b := e.rec.Buf(e.search, wk)
				succs, cached, err := e.safeSuccessors(frontier[i].state, depth, wk, b)
				if err != nil {
					exps[i-lo].err = err
					return
				}
				for _, st := range succs {
					st.Result.Hash() // warm the memo outside the merge
				}
				exps[i-lo] = expansion{steps: succs, events: b.Take(), cached: cached}
			}
			if cw := min(w, hi-lo); cw <= 1 {
				if ctx.Err() != nil {
					res.Interrupted = true
					return nil
				}
				for i := lo; i < hi; i++ {
					expand(i, 0)
				}
			} else {
				var next atomic.Int64
				next.Store(int64(lo))
				var wg sync.WaitGroup
				for k := 0; k < cw; k++ {
					wk := k + 1 // worker track ids; 0 is the merge's
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							i := int(next.Add(1)) - 1
							if i >= hi || ctx.Err() != nil {
								return
							}
							expand(i, wk)
						}
					}()
				}
				wg.Wait()
				if ctx.Err() != nil {
					res.Interrupted = true
					return nil
				}
			}

			// Merge in frontier order — this loop IS the sequential
			// algorithm, only with the successor sets precomputed, which is
			// why verdicts, witnesses, and state counts match the Workers=1
			// run exactly. Exits (goal, budget) land at the same successor
			// regardless of worker count or chunk boundaries. Kept nodes
			// commit their expansion events and (fresh expansions only)
			// enter the transition cache here, so journal and cache content
			// are equally schedule-independent.
			for i := lo; i < hi; i++ {
				if exps[i-lo].err != nil {
					return exps[i-lo].err
				}
				n := frontier[i]
				ex := &exps[i-lo]
				e.rec.Commit(ex.events)
				if !ex.cached {
					e.cachePut(n.state, ex.steps)
				}
				for _, st := range ex.steps {
					stats.RuleFirings[st.Rule]++
					mb.Record(telemetry.EvRuleFired, depth+1, st.Result.Hash(), st.Rule, 0)
					if !opts.NoDedup && !visited.add(st.Result) {
						stats.DedupHits++
						mb.Record(telemetry.EvDedup, depth+1, st.Result.Hash(), "", 0)
						continue
					}
					if opts.MaxStates > 0 && res.StatesExplored >= opts.MaxStates {
						res.Truncated = true
						return nil
					}
					res.StatesExplored++
					child := &node{state: st.Result, rule: st.Rule, parent: n, depth: depth + 1}
					if e.goalFn(st.Result) {
						mb.Record(telemetry.EvGoalMatched, depth+1, st.Result.Hash(), "", int64(res.StatesExplored))
						res.Found = true
						res.Final = st.Result
						res.Witness = child.witness()
						return nil
					}
					nextFrontier = append(nextFrontier, child)
				}
			}
			mb.Flush()
			if opts.StatsInterval > 0 {
				progress()
			}
		}
		frontier = nextFrontier
		progress()
	}
	return nil
}

// searchDFS is the sequential LIFO engine (the frontier-order ablation).
// Recorder events go straight onto worker track 0 (there is one goroutine);
// progress fires only when StatsInterval is set, since DFS has no levels.
func (e *engine) searchDFS(ctx context.Context, start *Term, goal Goal, opts Options, res *SearchResult, stats *SearchStats, progress func()) error {
	visited := newVisitedSet(e.intern)
	if !opts.NoDedup {
		visited.add(start)
	}
	mb := e.rec.Buf(e.search, 0)
	defer mb.Flush()
	stack := []*node{{state: start}}
	for len(stack) > 0 {
		if ctx.Err() != nil {
			res.Interrupted = true
			return nil
		}
		// DFS has no level boundaries; run the memory watch every 1024
		// visited states instead.
		if res.StatesExplored&1023 == 0 && e.checkMemBudget(opts, stats.Depth, len(stack), res, stats) {
			return nil
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if opts.MaxDepth > 0 && n.depth >= opts.MaxDepth {
			continue
		}
		succs, cached, err := e.safeSuccessors(n.state, n.depth, 0, mb)
		if err != nil {
			return err
		}
		if !cached {
			e.cachePut(n.state, succs)
		}
		for _, st := range succs {
			stats.RuleFirings[st.Rule]++
			mb.Record(telemetry.EvRuleFired, n.depth+1, st.Result.Hash(), st.Rule, 0)
			if !opts.NoDedup && !visited.add(st.Result) {
				stats.DedupHits++
				mb.Record(telemetry.EvDedup, n.depth+1, st.Result.Hash(), "", 0)
				continue
			}
			if opts.MaxStates > 0 && res.StatesExplored >= opts.MaxStates {
				res.Truncated = true
				return nil
			}
			res.StatesExplored++
			child := &node{state: st.Result, rule: st.Rule, parent: n, depth: n.depth + 1}
			if e.goalFn(st.Result) {
				mb.Record(telemetry.EvGoalMatched, n.depth+1, st.Result.Hash(), "", int64(res.StatesExplored))
				res.Found = true
				res.Final = st.Result
				res.Witness = child.witness()
				return nil
			}
			stack = append(stack, child)
		}
		mb.Flush()
		if opts.StatsInterval > 0 {
			progress()
		}
	}
	return nil
}
