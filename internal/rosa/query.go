package rosa

import (
	"context"
	"errors"
	"fmt"
	"time"

	"privanalyzer/internal/obs"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/telemetry"
)

// Verdict is ROSA's answer for one (attack, privilege set, credentials)
// combination.
type Verdict uint8

// Verdicts.
const (
	// Safe: the compromised state is unreachable; the search exhausted the
	// bounded state space without finding it (✗ in the paper's tables).
	Safe Verdict = iota + 1
	// Vulnerable: a reachable state matches the compromised-state pattern
	// (✓ in the paper's tables).
	Vulnerable
	// Unknown: the search exceeded its state budget before reaching a
	// verdict (the ⏱ timeouts of Table V).
	Unknown
)

// String renders the verdict with the paper's glyphs.
func (v Verdict) String() string {
	switch v {
	case Safe:
		return "✗"
	case Vulnerable:
		return "✓"
	case Unknown:
		return "⏱"
	default:
		return "?"
	}
}

// metricName renders the verdict as a Prometheus-safe word for the
// rosa_verdict_* counter family.
func (v Verdict) metricName() string {
	switch v {
	case Safe:
		return "safe"
	case Vulnerable:
		return "vulnerable"
	case Unknown:
		return "unknown"
	default:
		return "invalid"
	}
}

// Query is one bounded model-checking question: from an initial
// configuration of objects and syscall messages, can a state matching Goal
// be reached? The embedded rewrite.Options is the single option surface
// shared with the engine — MaxStates, MaxDepth, NoDedup, DepthFirst,
// Workers, OnStats are all promoted fields; the zero value is the default
// configuration (Dedup on, BFS, one search worker per CPU). The only
// rosa-specific twist: MaxStates 0 means DefaultMaxStates rather than
// unbounded, so every query has the paper's timeout analogue.
type Query struct {
	// Objects are the initial objects (processes, files, dirs, sockets,
	// users, groups).
	Objects []*rewrite.Term
	// Messages are the syscall messages the attacker may consume, each
	// usable once (§V-B: the user specifies how many times each system call
	// may be used by adding that many messages).
	Messages []*rewrite.Term
	// Goal is the compromised-state pattern.
	Goal rewrite.Goal
	// Options bounds and tunes the search. Exceeding MaxStates (or the
	// context deadline in RunContext) yields the Unknown verdict.
	rewrite.Options
	// Extended runs the query against the §X extended system (Capsicum
	// capability mode, CFI sequencing). Queries without extension objects
	// get identical verdicts either way.
	Extended bool
}

// NewQuery returns a query over the given initial configuration with the
// default search configuration (the zero Options plus the standing
// DefaultMaxStates budget applied at run time).
func NewQuery(objects, messages []*rewrite.Term, goal rewrite.Goal) *Query {
	return &Query{Objects: objects, Messages: messages, Goal: goal, Options: rewrite.DefaultOptions()}
}

// DefaultMaxStates is the search budget standing in for the paper's
// wall-clock timeout (they used 5 hours; state count is the deterministic
// equivalent). With escalation (the default) this is the ladder's cap, not
// the first attempt's budget.
const DefaultMaxStates = 2_000_000

// Escalation supervisor defaults (rewrite.Options.Escalate zero fields):
// queries start small and grow the budget geometrically, so quick verdicts —
// the overwhelming majority on the paper's grid — never pay for the full
// budget's bookkeeping, and slow ones reach the same cap as the legacy
// one-shot search. BFS determinism makes escalation verdict-transparent: a
// truncated attempt is a prefix of the next one, so the resolved verdict,
// witness, and state count are identical to a one-shot run at the cap.
const (
	// DefaultEscalationStart is the first attempt's MaxStates budget.
	DefaultEscalationStart = 1 << 14
	// DefaultEscalationFactor multiplies the budget between attempts.
	DefaultEscalationFactor = 8
)

// Result is the outcome of running a query.
type Result struct {
	// Verdict is the ROSA answer.
	Verdict Verdict
	// Witness is the attack's syscall sequence when Vulnerable.
	Witness []rewrite.Step
	// StatesExplored counts distinct configurations visited.
	StatesExplored int
	// Elapsed is the wall-clock search time (all escalation attempts).
	Elapsed time.Duration
	// Stats is the search's observability snapshot (states/sec, frontier
	// per depth, per-rule firings, dedup rate) — the final attempt's.
	Stats *rewrite.SearchStats
	// Err records the search fault that forced an Unknown verdict — a
	// *rewrite.SearchError from a recovered worker panic, a successor
	// error, or an injected fault. Nil for clean verdicts, including clean
	// budget/deadline Unknowns. The query-level API reports faults here
	// rather than as a returned error so one poisoned query degrades to ⏱
	// while the analysis keeps running.
	Err error
	// Attempts counts escalation attempts (1 = resolved on the first
	// budget, or escalation disabled).
	Attempts int
	// Degraded reports that the soft memory budget stopped the search
	// (Options.MemBudget); the verdict is Unknown.
	Degraded bool
}

// InitialState returns the query's initial configuration term.
func (q *Query) InitialState() *rewrite.Term {
	elems := make([]*rewrite.Term, 0, len(q.Objects)+len(q.Messages))
	elems = append(elems, q.Objects...)
	elems = append(elems, q.Messages...)
	return rewrite.NewConfig(elems...)
}

// Run executes the bounded search and returns the verdict. It is the
// pre-context entry point, a thin wrapper over RunContext.
func (q *Query) Run() (*Result, error) {
	return q.RunContext(context.Background())
}

// RunContext executes the bounded search under ctx. Cancelling the context
// (or letting its deadline expire — the true analogue of the paper's
// five-hour wall-clock limit, §VII-D2) stops the search promptly and
// yields the Unknown (⏱) verdict, exactly like exceeding the state budget.
func (q *Query) RunContext(ctx context.Context) (*Result, error) {
	if q.Extended {
		return q.runOn(ctx, NewExtendedSystem())
	}
	return q.runOn(ctx, NewSystem())
}

// runOn executes the query against an explicit rewrite theory (the base
// system or the §X extended one). It is the escalation supervisor: unless
// NoEscalate is set, the search runs at a small MaxStates first and the
// budget grows geometrically (Options.Escalate) until the verdict resolves,
// the cap is reached, or the context dies. Re-exploration between attempts
// is one cache probe per already-expanded state, because every attempt
// shares the System's TransitionCache.
//
// Fault contract: a *rewrite.SearchError (worker panic, successor failure,
// injected fault) yields (Result{Verdict: Unknown, Err: ...}, nil) — the
// fault is data, not control flow, so callers running query grids keep
// going. Only setup errors (diverging equations) return a non-nil error.
func (q *Query) runOn(ctx context.Context, sys *rewrite.System) (*Result, error) {
	opts := q.Options
	budgetCap := opts.MaxStates
	if budgetCap <= 0 {
		budgetCap = DefaultMaxStates
	}
	if opts.Escalate.Max > 0 {
		budgetCap = opts.Escalate.Max
	}
	reg := telemetry.FromContext(ctx)

	// Escalation without a Checker-attached cache would recompute every
	// earlier attempt's expansions; attach a query-private cache so attempts
	// share the expanded graph. (Keys are interned pointers, so interning
	// must be on.)
	if sys.Cache == nil && !opts.NoIntern && !opts.NoCache && !opts.NoEscalate {
		sys.Cache = rewrite.NewTransitionCache()
	}

	budget := opts.Escalate.Start
	if budget <= 0 {
		budget = DefaultEscalationStart
	}
	if factor := opts.Escalate.Factor; factor < 2 {
		opts.Escalate.Factor = DefaultEscalationFactor
	}
	if opts.NoEscalate || budget > budgetCap {
		budget = budgetCap
	}

	init := q.InitialState()
	// Cost ledger: the meter brackets the whole query — every escalation
	// rung — and the engine counters are filled from the final attempt's
	// stats below. The zero Meter (NoCost) is inert and Stop returns nil.
	var meter obs.Meter
	if !opts.NoCost {
		meter = obs.Start()
	}
	start := time.Now()
	var sr *rewrite.SearchResult
	var searchErr error
	attempts := 0
	for {
		attempts++
		opts.MaxStates = budget
		sr, searchErr = sys.SearchContext(ctx, init, q.Goal, opts)
		if searchErr != nil || sr == nil {
			break
		}
		// Resolved (found or exhausted), interrupted (nothing to escalate
		// against — the context is gone), memory-degraded (a bigger state
		// budget hits the same memory wall), or capped: stop. Only a clean
		// state-budget truncation below the cap escalates.
		if sr.Found || !sr.Truncated || sr.Degraded || budget >= budgetCap {
			break
		}
		next := budget * opts.Escalate.Factor
		if next > budgetCap || next < budget { // cap, and overflow guard
			next = budgetCap
		}
		telemetry.Logger(ctx).Debug("rosa budget escalation",
			"component", "rosa",
			"attempt", attempts,
			"budget", budget,
			"next_budget", next,
			"states", sr.StatesExplored)
		// The escalation rung is a journal (and live-stream) event, stamped
		// with the just-finished attempt's search id so the journal keeps
		// every event inside a real search; N carries the next budget.
		opts.Recorder.CommitEvent(telemetry.EvEscalated, opts.Recorder.CurrentSearch(), 0, 0, "", int64(next))
		budget = next
		reg.Counter("rosa_escalations_total").Add(1)
	}

	res := &Result{Elapsed: time.Since(start), Attempts: attempts}
	if searchErr != nil {
		var serr *rewrite.SearchError
		if !errors.As(searchErr, &serr) {
			return nil, fmt.Errorf("rosa: %w", searchErr)
		}
		res.Verdict = Unknown
		res.Err = serr
		if sr != nil {
			res.StatesExplored = sr.StatesExplored
			res.Stats = sr.Stats
		}
		reg.Counter("rosa_search_errors_total").Add(1)
		telemetry.Logger(ctx).Warn("rosa query faulted",
			"component", "rosa",
			"error", serr,
			"states", res.StatesExplored,
			"elapsed", res.Elapsed)
	} else {
		res.StatesExplored = sr.StatesExplored
		res.Stats = sr.Stats
		res.Degraded = sr.Degraded
		switch {
		case sr.Found:
			res.Verdict = Vulnerable
			res.Witness = sr.Witness
		case sr.Truncated, sr.Interrupted:
			res.Verdict = Unknown
		default:
			res.Verdict = Safe
		}
	}
	if res.Degraded {
		reg.Counter("rosa_degraded_total").Add(1)
	}
	if cost := meter.Stop(); cost != nil && res.Stats != nil {
		cost.StatesExpanded = res.StatesExplored
		cost.EscalationAttempts = attempts
		cost.CacheHits = res.Stats.CacheHits
		cost.CacheMisses = res.Stats.CacheMisses
		cost.CompiledMatches = res.Stats.CompiledMatches
		cost.FallbackMatches = res.Stats.FallbackMatches
		switch {
		case res.Degraded:
			cost.DegradationLevel = obs.DegradeStopped
		case res.Stats.DegradedAt > 0:
			cost.DegradationLevel = obs.DegradeCacheShed
		}
		res.Stats.Cost = cost
		reg.Timer("rosa_query_cpu_ns").Observe(time.Duration(cost.CPUNS))
		reg.Histogram("rosa_query_alloc_bytes").Observe(cost.AllocBytes)
	}
	telemetry.Logger(ctx).Debug("rosa query done",
		"component", "rosa",
		"verdict", res.Verdict.metricName(),
		"states", res.StatesExplored,
		"witness_len", len(res.Witness),
		"attempts", res.Attempts,
		"elapsed", res.Elapsed)
	// Per-query metrics. A nil registry (no telemetry on ctx) makes these
	// no-ops; the search itself never touches the registry.
	reg.Counter("rosa_queries_total").Add(1)
	reg.Counter("rosa_verdict_" + res.Verdict.metricName() + "_total").Add(1)
	reg.Counter("rosa_states_explored_total").Add(int64(res.StatesExplored))
	reg.Histogram("rosa_query_states").Observe(int64(res.StatesExplored))
	reg.Timer("rosa_query_elapsed_ns").Observe(res.Elapsed)
	if st := res.Stats; st != nil {
		// Successor-engine effectiveness: how much work the rule index,
		// subtree pruning, and the cross-query transition cache saved.
		reg.Counter("rosa_rules_skipped_by_index_total").Add(st.RulesSkippedByIndex)
		reg.Counter("rosa_subtrees_pruned_total").Add(st.SubtreesPruned)
		reg.Counter("rosa_succ_cache_hits_total").Add(st.CacheHits)
		reg.Counter("rosa_succ_cache_misses_total").Add(st.CacheMisses)
		reg.Counter("rosa_compiled_matches_total").Add(st.CompiledMatches)
		reg.Counter("rosa_fallback_matches_total").Add(st.FallbackMatches)
		if st.CompiledRules > 0 {
			reg.Gauge("rosa_compiled_rules").Set(int64(st.CompiledRules))
		}
		if st.InternerSize > 0 {
			reg.Gauge("rosa_interner_terms").Set(st.InternerSize)
		}
	}
	return res, nil
}

// GoalFileInReadSet is the paper's Figure 3 pattern: some running or
// terminated process has file fid in its read set — the attacker opened the
// file for reading.
func GoalFileInReadSet(fid int) rewrite.Goal {
	return goalOnProcessSet(fid, "Prdf")
}

// GoalFileInWriteSet: some process has file fid in its write set.
func GoalFileInWriteSet(fid int) rewrite.Goal {
	return goalOnProcessSet(fid, "Pwrf")
}

func goalOnProcessSet(fid int, which string) rewrite.Goal {
	pat := rewrite.NewConfig(
		rewrite.NewOp(symProcess,
			iv("Pid"),
			iv("Peuid"), iv("Pruid"), iv("Psuid"),
			iv("Pegid"), iv("Prgid"), iv("Psgid"),
			iv("Pstate"), iv("Prdf"), iv("Pwrf")),
		zvar(),
	)
	set := slotsOf(pat)(which)
	return rewrite.Goal{
		Pattern: pat,
		Cond: func(e *rewrite.Env) bool {
			return SetHas(e.At(set), fid)
		},
	}
}

// GoalPortBoundBelow: some socket is bound to a port in (0, limit) — the
// attacker masquerades as a privileged service.
func GoalPortBoundBelow(limit int) rewrite.Goal {
	pat := rewrite.NewConfig(
		rewrite.NewOp(symSocket, iv("Sid"), iv("Sport")),
		zvar(),
	)
	portS := slotsOf(pat)("Sport")
	return rewrite.Goal{
		Pattern: pat,
		Cond: func(e *rewrite.Env) bool {
			port, ok := e.IntAt(portS)
			return ok && port > 0 && port < int64(limit)
		},
	}
}

// GoalProcessTerminated: the process with the given ID has been terminated —
// the attacker disrupted a critical service.
func GoalProcessTerminated(pid int) rewrite.Goal {
	pat := rewrite.NewConfig(
		rewrite.NewOp(symProcess,
			rewrite.NewInt(int64(pid)),
			iv("Peuid"), iv("Pruid"), iv("Psuid"),
			iv("Pegid"), iv("Prgid"), iv("Psgid"),
			rewrite.NewOp(symTerm), iv("Prdf"), iv("Pwrf")),
		zvar(),
	)
	return rewrite.Goal{Pattern: pat}
}

// Simulate follows one deterministic execution from the initial state
// (Maude's `rewrite` command, in contrast to Run's exhaustive `search`):
// at each step the first applicable syscall fires. Useful for watching what
// a configuration does, not for verdicts — use Run for those.
func (q *Query) Simulate(maxSteps int) (*rewrite.Term, []rewrite.Step, error) {
	sys := NewSystem()
	if q.Extended {
		sys = NewExtendedSystem()
	}
	final, trace, _, err := sys.Rewrite(q.InitialState(), maxSteps)
	if err != nil {
		return nil, nil, fmt.Errorf("rosa: %w", err)
	}
	return final, trace, nil
}
