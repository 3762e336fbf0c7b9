package api

import (
	"fmt"
	"strconv"
	"strings"

	"privanalyzer/internal/attacks"
	"privanalyzer/internal/caps"
	"privanalyzer/internal/core"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
)

// Options maps the wire knobs onto the engine's option surface. This is the
// single conversion point: cmdutil.SearchFlags routes the CLI flags through
// the same SearchParams, so flag semantics and request-field semantics
// cannot drift. Timeout is not part of rewrite.Options — callers apply it
// as a context deadline. Workers is range-checked, then ignored.
func (p SearchParams) Options() (rewrite.Options, error) {
	if p.Workers > rewrite.MaxWorkers {
		return rewrite.Options{}, fmt.Errorf("workers: %d exceeds the maximum of %d", p.Workers, rewrite.MaxWorkers)
	}
	return rewrite.Options{
		MaxStates: p.Budget,
		Profile:   p.Stats,
	}, nil
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
	q.Profile = q.Profile || opts.Profile
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
		ElapsedNS:           st.Elapsed.Nanoseconds(),
	}
}

// CostOf sums the slow-query journal's counts over the queries one request
// ran: every query of analysis a, or the one standalone result r (pass nil
// for the other). Each count is read from what the results already carry;
// WallNS is left to the caller, which times the whole request.
func CostOf(a *core.Analysis, r *rosa.Result) QueryCost {
	var c QueryCost
	add := func(states int, st *rewrite.SearchStats) {
		c.StatesExpanded += states
		c.EscalationAttempts++
		if st != nil {
			c.CacheHits += st.CacheHits
			c.CacheMisses += st.CacheMisses
			c.CompiledMatches += st.CompiledMatches
			c.FallbackMatches += st.FallbackMatches
		}
	}
	if r != nil {
		add(r.StatesExplored, r.Stats)
	}
	if a != nil {
		for _, pr := range a.Phases {
			for i, v := range pr.Verdicts {
				if v != 0 {
					add(pr.States[i], pr.Stats[i])
				}
			}
		}
	}
	if total := c.CompiledMatches + c.FallbackMatches; total > 0 {
		c.CompiledShare = float64(c.CompiledMatches) / float64(total)
	}
	return c
}

// statsOf keeps the short name for this file's conversion call sites.
func statsOf(st *rewrite.SearchStats) *SearchStats { return FromSearchStats(st) }

// FromResult converts one ROSA result to its wire form. attack 0 means an
// ad-hoc query (no Table I coordinate). withStats includes the engine
// statistics snapshot.
func FromResult(attack int, r *rosa.Result, withStats bool) QueryResult {
	qr := QueryResult{
		Attack:    attack,
		Verdict:   verdictWord(r.Verdict),
		States:    r.StatesExplored,
		Attempts:  1,
		ElapsedNS: r.Elapsed.Nanoseconds(),
		Witness:   witnessSteps(r.Witness),
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
				Attempts:  1,
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
	opts := core.Options{Search: search}
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
