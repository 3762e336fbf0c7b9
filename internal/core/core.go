// Package core assembles PrivAnalyzer, the paper's primary contribution
// (Figure 1): AutoPriv statically computes dead privileges and transforms
// the program to remove them; ChronoPriv measures, per combination of
// permitted privilege set and process credentials, how many instructions the
// program executes dynamically; and the ROSA bounded model checker decides,
// for each combination and each modeled attack, whether an attacker
// exploiting the program could put the system into the compromised state.
// The combined output quantifies what damage is possible and for how long —
// the rows of Tables III and V plus the per-attack vulnerable-time shares
// the paper's headline results are drawn from.
package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"privanalyzer/internal/attacks"
	"privanalyzer/internal/autopriv"
	"privanalyzer/internal/chronopriv"
	"privanalyzer/internal/interp"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
	"privanalyzer/internal/telemetry"
)

// Options configures an analysis. Per-query search tuning lives in Search —
// the same rewrite.Options every layer shares — so there is one option
// surface from the CLI down to the engine.
type Options struct {
	// Search bounds and tunes each ROSA query's search (budget, depth,
	// stats callback, recorder, fault plan).
	// Search.MaxStates 0 means DefaultMaxStates. Exhausting the budget or
	// the AnalyzeContext deadline yields the Unknown (⏱) verdict for that
	// query.
	Search rewrite.Options
	// Checker, when set, runs the ROSA queries against this shared checker
	// instead of building a fresh one, so the transition caches amortize
	// across analyses of the same program — privanalyzerd keeps one hot
	// Checker per program in an LRU and injects it here. Verdicts are
	// identical either way; only repeated-analysis cost changes. Nil (the
	// CLI default) builds a per-call Checker.
	Checker *rosa.Checker
	// Attacks selects which attacks to model; nil means all four.
	Attacks []attacks.ID
	// ProfileBlocks runs the ChronoPriv measurement with the interpreter's
	// hot-block profile enabled and reports it in Analysis.HotBlocks; the
	// -trace-out exporter turns it into counter tracks. Costs one slice
	// update per charged segment or counted loop (interp.Options.Profile).
	ProfileBlocks bool
}

// DefaultMaxStates is the per-query budget standing in for the paper's
// five-hour wall-clock limit (§VII-D2). It is deliberately far above what
// any decidable cell in Tables III and V needs, so only genuine state-space
// blow-ups (the paper's ⏱ cells) hit it.
const DefaultMaxStates = 500_000

// PhaseResult is one analysed phase: the measured ChronoPriv row plus the
// ROSA verdict for each modeled attack.
type PhaseResult struct {
	// Spec is the paper's expected row (name, counts, verdicts).
	Spec programs.PhaseSpec
	// Measured is the ChronoPriv measurement for the phase.
	Measured chronopriv.Phase
	// Verdicts holds the ROSA verdicts for attacks 1–4 (zero value for
	// attacks excluded by Options).
	Verdicts [4]rosa.Verdict
	// Witnesses holds, per attack, the syscall sequence reaching the
	// compromised state when the verdict is Vulnerable; nil otherwise.
	Witnesses [4][]rewrite.Step
	// States and Elapsed record each query's search cost (Figures 5–11).
	States  [4]int
	Elapsed [4]time.Duration
	// Stats holds each query's full search statistics (states/sec,
	// frontier shape, rule firings, dedup rate); nil for attacks not run.
	Stats [4]*rewrite.SearchStats
	// Errs holds, per attack, the search fault (a *rewrite.SearchError —
	// recovered expansion panic, successor failure, injected fault) that forced
	// that query's Unknown verdict; nil for clean verdicts. The same faults
	// are aggregated, with attribution, in Analysis.Errors.
	Errs [4]error
}

// QueryError attributes one faulted query within an analysis: which
// program, phase, and attack hit the fault, and what it was.
type QueryError struct {
	// Program is the analysed program's name.
	Program string
	// Phase is the phase the faulted query belonged to.
	Phase string
	// Attack is the modeled attack the query was checking.
	Attack attacks.ID
	// Err is the underlying fault (a *rewrite.SearchError).
	Err error
}

// Error renders the fault with its grid coordinates.
func (e QueryError) Error() string {
	return fmt.Sprintf("%s %s %s: %v", e.Program, e.Phase, e.Attack, e.Err)
}

// Unwrap exposes the underlying fault to errors.Is/As chains.
func (e QueryError) Unwrap() error { return e.Err }

// Analysis is the full PrivAnalyzer output for one program.
type Analysis struct {
	// Program is the analysed program.
	Program *programs.Program
	// AutoPriv is the static-analysis result (required permitted set,
	// inserted removals).
	AutoPriv *autopriv.Result
	// Report is the raw ChronoPriv report.
	Report *chronopriv.Report
	// Phases holds per-phase results in the paper's display order.
	Phases []PhaseResult
	// VulnerableShare[i] is the percentage of executed instructions during
	// which attack i+1 was possible — the paper's "window of opportunity"
	// metric. Unknown phases count as not vulnerable, following the
	// paper's reading of its timeouts.
	VulnerableShare [4]float64
	// HotBlocks is the interpreter's hot-block profile for the ChronoPriv
	// run; nil unless Options.ProfileBlocks was set.
	HotBlocks *interp.BlockProfile
	// Errors aggregates every query fault the analysis survived, in job
	// order (phase-major, attack-minor — deterministic at any schedule).
	// Each faulted query's cell reads ⏱ in Phases; a non-empty Errors is
	// how callers distinguish "budget exhausted" from "query crashed and
	// was isolated".
	Errors []QueryError
	// Began and Ended are the wall-clock bounds of the AnalyzeContext call;
	// the -trace-out hot-block track of each program spans them.
	Began, Ended time.Time
}

// Analyze runs the full PrivAnalyzer pipeline on a program. It is the
// pre-context entry point, a thin wrapper over AnalyzeContext.
func Analyze(p *programs.Program, opts Options) (*Analysis, error) {
	return AnalyzeContext(context.Background(), p, opts)
}

// AnalyzeContext runs the full PrivAnalyzer pipeline on a program under
// ctx. A context deadline is the paper's wall-clock analysis limit: ROSA
// queries still pending when it expires finish promptly with the Unknown
// (⏱) verdict — the analysis itself still completes and reports them.
//
// Queries are fault-isolated: a panic or successor error inside one
// search costs that query its verdict (⏱, with the fault recorded in
// PhaseResult.Errs and aggregated in Analysis.Errors), never the analysis.
// Only setup failures — a broken theory — abort with an error.
//
// The queries run one at a time, so the rosa.query spans stay additive.
//
// When ctx carries a telemetry.Registry (telemetry.NewContext), the analysis
// opens a root span per program with child spans per stage — autopriv,
// chronopriv, and one rosa.query span per (phase, attack) tagged
// {program, phase, attack, verdict} — and feeds the registry's counters and
// histograms. Without a registry the telemetry calls are no-ops.
func AnalyzeContext(ctx context.Context, p *programs.Program, opts Options) (*Analysis, error) {
	return analyze(ctx, p, opts, false)
}

// analyze is AnalyzeContext, with the attack columns run concurrently when
// concurrent is set.
func analyze(ctx context.Context, p *programs.Program, opts Options, concurrent bool) (*Analysis, error) {
	began := time.Now()
	root, ctx := telemetry.StartSpan(ctx, "analyze", "program", p.Name)
	defer root.End()
	telemetry.FromContext(ctx).Counter("core_analyses_total").Add(1)

	search := opts.Search
	if search.MaxStates <= 0 {
		search.MaxStates = DefaultMaxStates
	}
	ids := opts.Attacks
	if ids == nil {
		ids = attacks.All
	}

	lg := telemetry.Logger(ctx).With("component", "core", "program", p.Name)
	lg.Debug("analysis start", "max_states", search.MaxStates, "attacks", len(ids))

	var rep *chronopriv.Report
	var ares *autopriv.Result
	var hot *interp.BlockProfile
	var err error
	if opts.ProfileBlocks {
		rep, ares, hot, err = p.MeasureProfiled(ctx)
	} else {
		rep, ares, err = p.MeasureContext(ctx)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	a := &Analysis{Program: p, AutoPriv: ares, Report: rep, HotBlocks: hot, Began: began}
	inventory := p.Syscalls()

	// Build the independent (phase, attack) query jobs.
	type job struct {
		phase  int
		attack attacks.ID
		query  *rosa.Query
	}
	var jobs []job
	for _, spec := range p.Phases {
		ph := rep.Find(spec.Key())
		if ph == nil {
			return nil, fmt.Errorf("core: %s: phase %s not observed in measurement", p.Name, spec.Name)
		}
		a.Phases = append(a.Phases, PhaseResult{Spec: spec, Measured: *ph})
		creds := rosa.Creds{
			RUID: ph.RUID, EUID: ph.EUID, SUID: ph.SUID,
			RGID: ph.RGID, EGID: ph.EGID, SGID: ph.SGID,
		}
		for _, id := range ids {
			q := attacks.Build(id, inventory, creds, ph.Privileges)
			q.Options = search
			jobs = append(jobs, job{phase: len(a.Phases) - 1, attack: id, query: q})
		}
	}

	// Run them by column: one attack's queries in phase order, on one shared
	// rosa.Checker whose transition cache a later phase of the column hits
	// almost entirely. Two attacks' queries never reach a common state, so
	// concurrent columns leave every query's cache counters as they are,
	// and each writes only its own jobs' slots. An injected Options.Checker
	// extends the sharing across analyses (the server's hot-checker LRU).
	checker := opts.Checker
	if checker == nil {
		checker = rosa.NewChecker()
	}
	results := make([]*rosa.Result, len(jobs))
	errs := make([]error, len(jobs))
	runJob := func(i int) {
		j := jobs[i]
		sp, qctx := telemetry.StartSpan(ctx, "rosa.query",
			"program", p.Name,
			"phase", a.Phases[j.phase].Spec.Name,
			"attack", strconv.Itoa(int(j.attack)))
		results[i], errs[i] = checker.Run(qctx, j.query)
		if results[i] != nil {
			sp.SetLabel("verdict", results[i].Verdict.String())
		}
		sp.End()
	}
	column := func(c int) {
		for i := c; i < len(jobs); i += len(ids) {
			runJob(i)
		}
	}
	var wg sync.WaitGroup
	for c := range ids {
		if !concurrent {
			column(c)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			column(c)
		}()
	}
	wg.Wait()

	var vulnerable [4]int64
	for i, j := range jobs {
		if errs[i] != nil {
			// Setup failures (a broken theory) still abort: nothing about the analysis is trustworthy. Search
			// faults never land here — rosa converts them to Unknown verdicts
			// with Result.Err set, collected below.
			return nil, fmt.Errorf("core: %s %s %s: %w",
				p.Name, a.Phases[j.phase].Spec.Name, j.attack, errs[i])
		}
		res := results[i]
		pr := &a.Phases[j.phase]
		pr.Verdicts[j.attack-1] = res.Verdict
		pr.Witnesses[j.attack-1] = res.Witness
		pr.States[j.attack-1] = res.StatesExplored
		pr.Elapsed[j.attack-1] = res.Elapsed
		pr.Stats[j.attack-1] = res.Stats
		if res.Err != nil {
			// A faulted query was isolated to its ⏱ cell; record the fault
			// with its grid coordinates and keep the analysis.
			pr.Errs[j.attack-1] = res.Err
			a.Errors = append(a.Errors, QueryError{
				Program: p.Name,
				Phase:   pr.Spec.Name,
				Attack:  j.attack,
				Err:     res.Err,
			})
			lg.Warn("query fault isolated",
				"phase", pr.Spec.Name, "attack", j.attack.String(), "error", res.Err)
		}
		if res.Verdict == rosa.Vulnerable {
			vulnerable[j.attack-1] += pr.Measured.Instructions
		}
	}
	telemetry.FromContext(ctx).Counter("core_query_faults_total").Add(int64(len(a.Errors)))
	if rep.Total > 0 {
		for i := range vulnerable {
			a.VulnerableShare[i] = 100 * float64(vulnerable[i]) / float64(rep.Total)
		}
	}
	lg.Debug("analysis done",
		"phases", len(a.Phases), "queries", len(jobs), "faults", len(a.Errors))
	a.Ended = time.Now()
	return a, nil
}

// AnalyzeAll analyses the named programs (programs.ByName) concurrently, a
// goroutine per program and per attack column, and returns the analyses in
// input order. Columns share no transition-cache entry, and each program
// builds its own model and, unless opts.Checker is set, its own
// rosa.Checker, so every analysis equals a separate AnalyzeContext call's,
// search statistics included; only wall-clock time changes. Each search
// runs on its column's goroutine, so the columns are the only parallelism.
// What the goroutines share is schedule-independent: the process-wide term
// interner (canonical representatives are a pure function of the term), and
// the telemetry registry on ctx and opts.Search.Recorder, which keep each
// query's spans and journal events apart by label and search id.
// opts.Search.OnStats, when set, is called from every column's goroutine.
//
// A program that fails cancels the context of the others, whose pending
// queries then finish promptly with ⏱. The error returned is the first in
// input order, and no analyses are returned with it.
func AnalyzeAll(ctx context.Context, names []string, opts Options) ([]*Analysis, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]*Analysis, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := programs.ByName(name)
			if err == nil {
				out[i], err = analyze(ctx, p, opts, true)
			}
			if err != nil {
				errs[i] = err
				cancel()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Mismatches compares the analysis against the paper's expected cells and
// returns a description of every deviation. Expected ⏱ cells accept either
// Unknown (our budget also blew up) or Safe (our search completed; the paper
// argues its timeouts are likely invulnerable). Expected counts compare
// exactly.
func (a *Analysis) Mismatches() []string {
	var out []string
	for _, pr := range a.Phases {
		if pr.Measured.Instructions != pr.Spec.Instructions {
			out = append(out, fmt.Sprintf("%s %s: measured %d instructions, paper says %d",
				a.Program.Name, pr.Spec.Name, pr.Measured.Instructions, pr.Spec.Instructions))
		}
		for i, want := range pr.Spec.Vuln {
			got := pr.Verdicts[i]
			if got == 0 {
				continue // attack not run
			}
			ok := false
			switch want {
			case programs.Yes:
				ok = got == rosa.Vulnerable
			case programs.No:
				ok = got == rosa.Safe
			case programs.Timeout:
				ok = got == rosa.Safe || got == rosa.Unknown
			}
			if !ok {
				out = append(out, fmt.Sprintf("%s %s attack%d: verdict %s, paper says %s",
					a.Program.Name, pr.Spec.Name, i+1, got, want))
			}
		}
	}
	return out
}

// String renders the analysis as the corresponding Table III/V fragment.
func (a *Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (total %d instructions)\n",
		a.Program.Name, a.Program.Workload, a.Report.Total)
	fmt.Fprintf(&b, "%-18s %-62s %-16s %-16s %22s  %s\n",
		"Name", "Privileges", "UID r,e,s", "GID r,e,s", "Dyn. Instr. Count", "1 2 3 4")
	for _, pr := range a.Phases {
		verdicts := make([]string, 0, 4)
		for _, v := range pr.Verdicts {
			if v == 0 {
				verdicts = append(verdicts, "-")
			} else {
				verdicts = append(verdicts, v.String())
			}
		}
		fmt.Fprintf(&b, "%-18s %-62s %-16s %-16s %14d (%5.2f%%)  %s\n",
			pr.Spec.Name, pr.Measured.Privileges, pr.Measured.UIDString(),
			pr.Measured.GIDString(), pr.Measured.Instructions,
			pr.Measured.Percent, strings.Join(verdicts, " "))
	}
	fmt.Fprintf(&b, "vulnerable share per attack: 1=%.2f%% 2=%.2f%% 3=%.2f%% 4=%.2f%%\n",
		a.VulnerableShare[0], a.VulnerableShare[1], a.VulnerableShare[2], a.VulnerableShare[3])
	for _, qe := range a.Errors {
		fmt.Fprintf(&b, "query fault (isolated, verdict ⏱): %s\n", qe.Error())
	}
	return b.String()
}
