package api

import (
	"fmt"
	"strconv"
	"strings"

	"privanalyzer/internal/attacks"
	"privanalyzer/internal/caps"
	"privanalyzer/internal/core"
	"privanalyzer/internal/obs"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
	"privanalyzer/internal/telemetry"
)

// Options maps the wire knobs onto the engine's option surface. This is the
// single conversion point: cmdutil.SearchFlags routes the CLI flags through
// the same SearchParams, so flag semantics and request-field semantics
// cannot drift. Timeout is not part of rewrite.Options — callers apply it
// as a context deadline.
func (p SearchParams) Options() (rewrite.Options, error) {
	if p.Workers > rewrite.MaxWorkers {
		return rewrite.Options{}, fmt.Errorf("workers: %d exceeds the maximum of %d", p.Workers, rewrite.MaxWorkers)
	}
	o := rewrite.Options{
		MaxStates: p.Budget,
		Workers:   p.Workers,
		MemBudget: p.MemBudget,
		Profile:   p.Stats,
		NoCompile: p.NoCompile,
		NoCost:    p.NoCost,
	}
	if err := ApplyEscalate(p.Escalate, &o); err != nil {
		return rewrite.Options{}, err
	}
	return o, nil
}

// ApplyEscalate applies the escalation grammar shared by the -escalate flag
// and SearchParams.Escalate to opts:
//
//	""                 escalation on with supervisor defaults (the default)
//	"off"              disable: one-shot search at the full budget
//	"start:factor"     escalate from start states, multiplying by factor
//	"start:factor:max" as above, capping the ladder at max states
func ApplyEscalate(s string, opts *rewrite.Options) error {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	if s == "off" {
		opts.NoEscalate = true
		return nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return fmt.Errorf(`escalate: want "off" or start:factor[:max], got %q`, s)
	}
	vals := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return fmt.Errorf("escalate: %q is not a positive integer", p)
		}
		vals[i] = v
	}
	if vals[1] < 2 {
		return fmt.Errorf("escalate: factor must be at least 2, got %d", vals[1])
	}
	opts.Escalate.Start = vals[0]
	opts.Escalate.Factor = vals[1]
	if len(vals) == 3 {
		if vals[2] < vals[0] {
			return fmt.Errorf("escalate: max %d below start %d", vals[2], vals[0])
		}
		opts.Escalate.Max = vals[2]
	}
	return nil
}

// Apply merges the explicit knobs onto a query's embedded options: set
// knobs win, silence keeps whatever the query (parsed file or attack
// builder) already carries. This is the one merge point the rosa CLI and
// the /v1/query handler share.
func (p SearchParams) Apply(q *rosa.Query) error {
	opts, err := p.Options()
	if err != nil {
		return err
	}
	if opts.MaxStates > 0 {
		q.MaxStates = opts.MaxStates
	}
	if opts.Workers != 0 {
		q.Workers = opts.Workers
	}
	if opts.MemBudget != 0 {
		q.MemBudget = opts.MemBudget
	}
	q.Profile = q.Profile || opts.Profile
	q.NoCompile = q.NoCompile || opts.NoCompile
	q.NoCost = q.NoCost || opts.NoCost
	if opts.Escalate != (rewrite.Escalation{}) {
		q.Escalate = opts.Escalate
	}
	if opts.NoEscalate {
		q.NoEscalate = true
	}
	return nil
}

// verdictWord renders a verdict as its wire word. The paper glyphs (✗ ✓ ⏱)
// stay in the human tables; the wire speaks words.
func verdictWord(v rosa.Verdict) string {
	switch v {
	case rosa.Safe:
		return "safe"
	case rosa.Vulnerable:
		return "vulnerable"
	case rosa.Unknown:
		return "unknown"
	default:
		return "invalid"
	}
}

// witnessSteps renders a witness as one "rule -> state" string per step —
// the wire form of rewrite.FormatWitness, line structure made explicit.
func witnessSteps(w []rewrite.Step) []string {
	if len(w) == 0 {
		return nil
	}
	out := make([]string, len(w))
	for i, st := range w {
		out[i] = st.Rule + " -> " + st.Result.String()
	}
	return out
}

// FromSearchStats converts the engine snapshot to its wire subset; nil in,
// nil out. It serves both the per-verdict Stats field and the job stream's
// progress frames, so a snapshot means the same thing on every surface.
func FromSearchStats(st *rewrite.SearchStats) *SearchStats {
	if st == nil {
		return nil
	}
	frontier := 0
	if n := len(st.Frontier); n > 0 {
		frontier = st.Frontier[n-1]
	}
	return &SearchStats{
		StatesExplored:      st.StatesExplored,
		Depth:               st.Depth,
		Frontier:            frontier,
		DedupHits:           st.DedupHits,
		StatesPerSec:        st.StatesPerSec(),
		RulesSkippedByIndex: st.RulesSkippedByIndex,
		SubtreesPruned:      st.SubtreesPruned,
		CacheHits:           st.CacheHits,
		CacheMisses:         st.CacheMisses,
		CompiledRules:       st.CompiledRules,
		CompiledMatches:     st.CompiledMatches,
		FallbackMatches:     st.FallbackMatches,
		InternerSize:        st.InternerSize,
		ElapsedNS:           st.Elapsed.Nanoseconds(),
		DegradedAt:          st.DegradedAt,
		DroppedEvents:       st.DroppedEvents,
		Cost:                FromQueryCost(st.Cost),
	}
}

// FromQueryCost converts the supervisor's cost ledger to its wire form; nil
// in, nil out (NoCost requests, mid-flight snapshots).
func FromQueryCost(c *obs.QueryCost) *QueryCost {
	if c == nil {
		return nil
	}
	return &QueryCost{
		WallNS:             c.WallNS,
		CPUNS:              c.CPUNS,
		AllocBytes:         c.AllocBytes,
		StatesExpanded:     c.StatesExpanded,
		CacheHits:          c.CacheHits,
		CacheMisses:        c.CacheMisses,
		CompiledMatches:    c.CompiledMatches,
		FallbackMatches:    c.FallbackMatches,
		CompiledShare:      c.CompiledShare(),
		EscalationAttempts: c.EscalationAttempts,
		DegradationLevel:   c.DegradationLevel,
	}
}

// statsOf keeps the short name for this file's conversion call sites.
func statsOf(st *rewrite.SearchStats) *SearchStats { return FromSearchStats(st) }

// FromEvent converts one recorder event to its wire form.
func FromEvent(ev telemetry.Event) JobEvent {
	return JobEvent{
		Kind:   ev.Kind.String(),
		Search: ev.Search,
		Depth:  ev.Depth,
		N:      ev.N,
		Rule:   ev.Rule,
		TNS:    ev.T,
	}
}

// FromResult converts one ROSA result to its wire form. attack 0 means an
// ad-hoc query (no Table I coordinate). withStats includes the engine
// statistics snapshot.
func FromResult(attack int, r *rosa.Result, withStats bool) QueryResult {
	qr := QueryResult{
		Attack:    attack,
		Verdict:   verdictWord(r.Verdict),
		States:    r.StatesExplored,
		Attempts:  r.Attempts,
		ElapsedNS: r.Elapsed.Nanoseconds(),
		Witness:   witnessSteps(r.Witness),
		Degraded:  r.Degraded,
	}
	if r.Err != nil {
		qr.Error = r.Err.Error()
	}
	if withStats {
		qr.Stats = statsOf(r.Stats)
	}
	return qr
}

// FromAnalysis converts a full analysis to its wire form. withStats
// includes per-query engine statistics.
func FromAnalysis(a *core.Analysis, withStats bool) *AnalyzeResponse {
	resp := &AnalyzeResponse{
		APIVersion:        Version,
		Program:           a.Program.Name,
		Workload:          a.Program.Workload,
		TotalInstructions: a.Report.Total,
		VulnerableShare:   a.VulnerableShare,
	}
	for _, pr := range a.Phases {
		wp := PhaseResult{
			Name:         pr.Spec.Name,
			Privileges:   pr.Measured.Privileges.String(),
			UID:          pr.Measured.UIDString(),
			GID:          pr.Measured.GIDString(),
			Instructions: pr.Measured.Instructions,
			Percent:      pr.Measured.Percent,
		}
		for i, v := range pr.Verdicts {
			if v == 0 {
				continue // attack not run
			}
			qr := QueryResult{
				Attack:    i + 1,
				Verdict:   verdictWord(v),
				States:    pr.States[i],
				ElapsedNS: pr.Elapsed[i].Nanoseconds(),
				Witness:   witnessSteps(pr.Witnesses[i]),
			}
			if pr.Errs[i] != nil {
				qr.Error = pr.Errs[i].Error()
			}
			if withStats {
				qr.Stats = statsOf(pr.Stats[i])
			}
			wp.Queries = append(wp.Queries, qr)
		}
		resp.Phases = append(resp.Phases, wp)
	}
	for _, qe := range a.Errors {
		resp.Errors = append(resp.Errors, qe.Error())
	}
	return resp
}

// CoreOptions translates an AnalyzeRequest to core.Options. The caller owns
// the Checker (the server injects its LRU-held one) and the context
// deadline (SearchParams.Timeout).
func (r AnalyzeRequest) CoreOptions() (core.Options, error) {
	search, err := r.Search.Options()
	if err != nil {
		return core.Options{}, err
	}
	opts := core.Options{Search: search, Parallel: r.Parallel}
	for _, id := range r.Attacks {
		if id < 1 || id > 4 {
			return core.Options{}, fmt.Errorf("attacks: %d is not a Table I attack (1-4)", id)
		}
		opts.Attacks = append(opts.Attacks, attacks.ID(id))
	}
	return opts, nil
}

// ParseTriple parses a "real,effective,saved" credential triple.
func ParseTriple(s string) ([3]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return [3]int{}, fmt.Errorf("want three comma-separated integers, got %q", s)
	}
	var out [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return [3]int{}, err
		}
		out[i] = v
	}
	return out, nil
}

// Build materializes the request's rosa.Query plus a human description.
// Source submissions parse the query file format; structured submissions
// build one of the paper's Table I attacks. The search knobs are already
// applied to the returned query's embedded Options.
func (r QueryRequest) Build() (*rosa.Query, string, error) {
	var q *rosa.Query
	var err error
	desc := ""
	switch {
	case r.Source != "":
		q, err = rosa.ParseQuery(r.Source)
		if err != nil {
			return nil, "", err
		}
		desc = "query file"
	case r.Attack >= 1 && r.Attack <= 4:
		privs, err := caps.ParseSet(r.Privs)
		if err != nil {
			return nil, "", err
		}
		uidArg, gidArg := r.UID, r.GID
		if uidArg == "" {
			uidArg = "1000,1000,1000"
		}
		if gidArg == "" {
			gidArg = "1000,1000,1000"
		}
		uid, err := ParseTriple(uidArg)
		if err != nil {
			return nil, "", fmt.Errorf("uid: %w", err)
		}
		gid, err := ParseTriple(gidArg)
		if err != nil {
			return nil, "", fmt.Errorf("gid: %w", err)
		}
		if len(r.Syscalls) == 0 {
			return nil, "", fmt.Errorf("syscalls: attack queries need a syscall inventory")
		}
		id := attacks.ID(r.Attack)
		creds := rosa.Creds{
			RUID: uid[0], EUID: uid[1], SUID: uid[2],
			RGID: gid[0], EGID: gid[1], SGID: gid[2],
		}
		q = attacks.Build(id, r.Syscalls, creds, privs)
		desc = id.Description()
	default:
		return nil, "", fmt.Errorf("query wants either source or attack 1-4")
	}
	// The query keeps its parsed/built defaults where the request is silent;
	// explicit knobs win.
	if err := r.Search.Apply(q); err != nil {
		return nil, "", err
	}
	q.Extended = q.Extended || r.Extended
	return q, desc, nil
}
