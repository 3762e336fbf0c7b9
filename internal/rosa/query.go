package rosa

import (
	"context"
	"errors"
	"fmt"
	"time"

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
// shared with the engine — MaxStates, MaxDepth, OnStats, Profile are all
// promoted fields; the zero value is the default configuration (one
// breadth-first search on the calling goroutine). The only rosa-specific
// twist: MaxStates 0 means
// DefaultMaxStates rather than unbounded, so every query has the paper's
// timeout analogue.
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
	return &Query{Objects: objects, Messages: messages, Goal: goal}
}

// DefaultMaxStates is the search budget standing in for the paper's
// wall-clock timeout (they used 5 hours; state count is the deterministic
// equivalent).
const DefaultMaxStates = 2_000_000

// Result is the outcome of running a query.
type Result struct {
	// Verdict is the ROSA answer.
	Verdict Verdict
	// Witness is the attack's syscall sequence when Vulnerable.
	Witness []rewrite.Step
	// StatesExplored counts distinct configurations visited.
	StatesExplored int
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
	// Stats is the search's observability snapshot (states/sec, frontier
	// per depth, per-rule firings, dedup rate).
	Stats *rewrite.SearchStats
	// Err records the search fault that forced an Unknown verdict — a
	// *rewrite.SearchError from a recovered expansion panic. Nil for clean
	// verdicts, including clean budget/deadline Unknowns. The query-level API reports faults here
	// rather than as a returned error so one poisoned query degrades to ⏱
	// while the analysis keeps running.
	Err error
	// Attempts is always 1: a query runs one search at its budget. The
	// field stays for callers that still read it.
	Attempts int
	// Interrupted reports that the context — its deadline or a
	// cancellation — stopped the search; the verdict is Unknown.
	Interrupted bool
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
	return shared().Run(ctx, q)
}

// runOn executes the query against an explicit rewrite theory (the base
// system or the §X extended one): one search, bounded by MaxStates (0 means
// DefaultMaxStates) and the context.
//
// Fault contract: a *rewrite.SearchError (a panic expanding a state)
// yields (Result{Verdict: Unknown, Err: ...}, nil) — the fault is data, not
// control flow, so callers running query grids keep going. Only setup
// errors (a rule or the goal outside the compiled fragment) return a
// non-nil error.
func (q *Query) runOn(ctx context.Context, sys *rewrite.System) (*Result, error) {
	opts := q.Options
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultMaxStates
	}
	reg := telemetry.FromContext(ctx)
	start := time.Now()
	sr, searchErr := sys.SearchContext(ctx, q.InitialState(), q.Goal, opts)
	res := &Result{Elapsed: time.Since(start), Attempts: 1}
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
		res.Interrupted = sr.Interrupted
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
	telemetry.Logger(ctx).Debug("rosa query done",
		"component", "rosa",
		"verdict", res.Verdict.metricName(),
		"states", res.StatesExplored,
		"witness_len", len(res.Witness),
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
		// root-only rewriting, and the cross-query transition cache saved.
		// Fallback matches are always 0 and stay for the metric's readers.
		reg.Counter("rosa_rules_skipped_by_index_total").Add(st.RulesSkippedByIndex)
		reg.Counter("rosa_subtrees_pruned_total").Add(st.SubtreesPruned)
		reg.Counter("rosa_succ_cache_hits_total").Add(st.CacheHits)
		reg.Counter("rosa_succ_cache_misses_total").Add(st.CacheMisses)
		reg.Counter("rosa_compiled_matches_total").Add(st.CompiledMatches)
		reg.Counter("rosa_fallback_matches_total").Add(st.FallbackMatches)
		if st.CompiledRules > 0 {
			reg.Gauge("rosa_compiled_rules").Set(int64(st.CompiledRules))
		}
	}
	reg.Gauge("rosa_interner_terms").Set(rewrite.InternerSize())
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
	final, trace, _, err := shared().system(q.Extended).Rewrite(q.InitialState(), maxSteps)
	if err != nil {
		return nil, nil, fmt.Errorf("rosa: %w", err)
	}
	return final, trace, nil
}
