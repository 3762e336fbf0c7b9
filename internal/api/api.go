// Package api defines the versioned wire schema shared by every surface
// that speaks PrivAnalyzer results: the privanalyzerd REST endpoints, the
// privanalyzer -json CLI output, and embedders that want typed requests and
// responses without linking the HTTP layer. The types here are the contract
// — handlers and CLIs marshal through them, never through ad-hoc structs —
// so the JSON a script parses from the CLI is byte-compatible with the JSON
// the server returns.
//
// Versioning: every response carries APIVersion (the Version constant).
// Additive changes (new optional fields) keep the version; renames and
// semantic changes bump it. Request knobs map 1:1 onto rewrite.Options via
// SearchParams.Options, so a per-request budget, escalation ladder, memory
// budget, or worker count means exactly what the same CLI flag means.
package api

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Version is the wire-schema version stamped on every response.
const Version = "v1"

// Duration marshals as a Go duration string ("250ms", "1m30s") so request
// payloads read like the CLI flags they mirror. The zero value marshals as
// omitted (fields use omitempty).
type Duration time.Duration

// MarshalJSON renders the duration as its canonical Go string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Std returns the duration as its standard-library type.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// UnmarshalJSON accepts a Go duration string or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("api: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("api: duration wants a string like \"250ms\" or nanoseconds, got %s", data)
	}
	*d = Duration(ns)
	return nil
}

// SearchParams are the per-request search knobs. Every field maps 1:1 onto
// the identically-named CLI flag and, through Options, onto rewrite.Options
// — the single option surface the engine, the CLIs, and the server share.
// The zero value means "server/engine defaults" for every knob.
type SearchParams struct {
	// Budget caps the per-query state budget (the escalation ladder's cap);
	// 0 means the standing default (rosa.DefaultMaxStates for raw queries,
	// core.DefaultMaxStates for analyses). CLI flag: -budget.
	Budget int `json:"budget,omitempty"`
	// Workers is the search worker count per depth level (0 = one per CPU,
	// 1 = sequential, at most rewrite.MaxWorkers). Verdicts are identical
	// at any value. CLI: -workers.
	Workers int `json:"workers,omitempty"`
	// Escalate is the budget-escalation ladder in the -escalate grammar:
	// "" (defaults), "off", or "start:factor[:max]".
	Escalate string `json:"escalate,omitempty"`
	// MemBudget is the soft per-query memory budget in bytes; breaching it
	// sheds the transition cache, then degrades to ⏱. CLI: -mem-budget.
	MemBudget int64 `json:"mem_budget,omitempty"`
	// Timeout is the wall-clock limit for the request; work past the
	// deadline resolves to the ⏱ verdict. CLI: -timeout.
	Timeout Duration `json:"timeout,omitempty"`
	// Stats includes the per-query engine statistics (and enables the rule
	// profiler) in the response. CLI: -stats.
	Stats bool `json:"stats,omitempty"`
	// NoCompile disables the compiled rule matchers for this request; every
	// rule attempt runs through the generic interpreter. Results are
	// byte-identical either way — the knob exists for ablation and
	// benchmarking the interpreter baseline. No CLI flag.
	NoCompile bool `json:"no_compile,omitempty"`
	// NoCost disables the per-query cost ledger (SearchStats.Cost and the
	// slow-query journal's admission) for this request. CLI: -no-cost.
	NoCost bool `json:"no_cost,omitempty"`
	// DeadlineMS is the request's total deadline in milliseconds, measured
	// from admission — queue wait counts against it, unlike Timeout, which
	// starts when a worker picks the request up. A request still queued when
	// the deadline expires is withdrawn without running (504,
	// "deadline_exceeded"); a request already executing resolves through the
	// engine's context-deadline path to the ⏱ verdict. The server clamps the
	// value to its -max-deadline; 0 means "no client deadline" (the server's
	// -max-deadline, when set, still applies).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// OrDefaults fills zero-valued knobs from d (a server's standing defaults);
// explicitly-set request fields always win.
func (p SearchParams) OrDefaults(d SearchParams) SearchParams {
	if p.Budget == 0 {
		p.Budget = d.Budget
	}
	if p.Workers == 0 {
		p.Workers = d.Workers
	}
	if p.Escalate == "" {
		p.Escalate = d.Escalate
	}
	if p.MemBudget == 0 {
		p.MemBudget = d.MemBudget
	}
	if p.Timeout == 0 {
		p.Timeout = d.Timeout
	}
	p.Stats = p.Stats || d.Stats
	p.NoCompile = p.NoCompile || d.NoCompile
	p.NoCost = p.NoCost || d.NoCost
	if p.DeadlineMS == 0 {
		p.DeadlineMS = d.DeadlineMS
	}
	return p
}

// AnalyzeRequest asks for the full PrivAnalyzer pipeline — AutoPriv,
// ChronoPriv, and the ROSA verdict grid — over one modeled program.
// POST /v1/analyze.
type AnalyzeRequest struct {
	// Program names the modeled program (programs.Names()).
	Program string `json:"program"`
	// Attacks selects attack IDs 1-4; empty means all four.
	Attacks []int `json:"attacks,omitempty"`
	// Parallel fans the independent (phase, attack) queries out over the
	// CPUs on top of each query's own frontier parallelism.
	Parallel bool `json:"parallel,omitempty"`
	// Priority orders queued requests: higher runs sooner; equal priority
	// is FIFO. Admission control is the queue bound, not the priority.
	Priority int `json:"priority,omitempty"`
	// Search tunes every query of the analysis.
	Search SearchParams `json:"search,omitempty"`
}

// AnalyzeResponse is one program's full analysis — the wire form of
// core.Analysis, the same rows the CLI tables render.
type AnalyzeResponse struct {
	APIVersion string `json:"api_version"`
	Program    string `json:"program"`
	Workload   string `json:"workload"`
	// TotalInstructions is the run's dynamic instruction count.
	TotalInstructions int64 `json:"total_instructions"`
	// Phases holds per-phase measurements and verdicts in display order.
	Phases []PhaseResult `json:"phases"`
	// VulnerableShare[i] is the percentage of executed instructions during
	// which attack i+1 was possible (the paper's window of opportunity).
	VulnerableShare [4]float64 `json:"vulnerable_share"`
	// Errors lists isolated query faults (verdict ⏱) with grid coordinates.
	Errors []string `json:"errors,omitempty"`
}

// PhaseResult is one phase row: the ChronoPriv measurement plus one
// QueryResult per modeled attack.
type PhaseResult struct {
	Name       string `json:"name"`
	Privileges string `json:"privileges"`
	// UID and GID are the "real,effective,saved" credential triples.
	UID          string  `json:"uid"`
	GID          string  `json:"gid"`
	Instructions int64   `json:"instructions"`
	Percent      float64 `json:"percent"`
	// Queries holds the ROSA results for the attacks that ran, in attack
	// order.
	Queries []QueryResult `json:"queries"`
}

// QueryResult is one ROSA verdict: the wire form of rosa.Result.
type QueryResult struct {
	// Attack is the modeled attack ID (1-4); 0 for ad-hoc /v1/query runs.
	Attack int `json:"attack,omitempty"`
	// Verdict is "safe", "vulnerable", or "unknown" (the paper's ✗, ✓, ⏱).
	Verdict string `json:"verdict"`
	// States counts distinct configurations the search visited.
	States int `json:"states"`
	// Attempts counts budget-escalation attempts (1 = first budget).
	Attempts int `json:"attempts,omitempty"`
	// ElapsedNS is the wall-clock search time. It is the only
	// non-deterministic field of a verdict; everything else is byte-stable
	// across runs, worker counts, and warm/cold caches.
	ElapsedNS int64 `json:"elapsed_ns"`
	// Witness is the attack syscall sequence when vulnerable, one
	// "rule -> state" step per entry.
	Witness []string `json:"witness,omitempty"`
	// Degraded reports the soft memory budget stopped the search.
	Degraded bool `json:"degraded,omitempty"`
	// Error carries the isolated search fault that forced an unknown
	// verdict; empty for clean verdicts.
	Error string `json:"error,omitempty"`
	// Stats is the engine's statistics snapshot; present only when the
	// request set SearchParams.Stats.
	Stats *SearchStats `json:"stats,omitempty"`
}

// SearchStats is the wire subset of rewrite.SearchStats: counters that let
// an operator see what the engine did without shipping the full profile.
// The same shape serves two roles: a final snapshot attached to a verdict
// (QueryResult.Stats) and a progress snapshot streamed by a job's SSE
// `stats` frames, where StatesExplored/Frontier/ElapsedNS make the search's
// motion visible mid-flight.
type SearchStats struct {
	StatesExplored      int     `json:"states_explored"`
	Depth               int     `json:"depth"`
	Frontier            int     `json:"frontier,omitempty"`
	DedupHits           int     `json:"dedup_hits"`
	StatesPerSec        float64 `json:"states_per_sec"`
	RulesSkippedByIndex int64   `json:"rules_skipped_by_index"`
	SubtreesPruned      int64   `json:"subtrees_pruned"`
	CacheHits           int64   `json:"cache_hits"`
	CacheMisses         int64   `json:"cache_misses"`
	// CompiledRules counts rules with compiled matchers; CompiledMatches and
	// FallbackMatches split rule attempts between the compiled matchers and
	// the interpreter (both zero under no_compile).
	CompiledRules   int   `json:"compiled_rules,omitempty"`
	CompiledMatches int64 `json:"compiled_matches,omitempty"`
	FallbackMatches int64 `json:"fallback_matches,omitempty"`
	InternerSize    int64 `json:"interner_size"`
	// ElapsedNS is wall-clock time into the search — nondeterministic, like
	// QueryResult.ElapsedNS, and zeroed by byte-identity comparisons.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
	// DegradedAt is the states-explored count at which the soft memory
	// budget first degraded the search; 0 when it never did.
	DegradedAt int `json:"degraded_at,omitempty"`
	// DroppedEvents is the flight recorder's truncation count at snapshot
	// time (journal overwrites; stream drops are reported per job).
	DroppedEvents int64 `json:"dropped_events,omitempty"`
	// Cost is the query's resource ledger (wall, CPU, allocation plus the
	// engine counters as one cost vector), captured by the escalating
	// supervisor around the whole query. Present on final snapshots unless
	// the request set no_cost; nil on mid-flight progress snapshots.
	Cost *QueryCost `json:"cost,omitempty"`
}

// QueryCost is the wire form of obs.QueryCost: one query's resource ledger.
// The count fields (states_expanded through degradation_level) are
// deterministic — byte-identical at any worker count — while wall_ns,
// cpu_ns, and alloc_bytes are wall-clock-class measurements that vary run to
// run (byte-identity comparisons zero them, like elapsed_ns). cpu_ns and
// alloc_bytes are process-wide deltas across the query: upper bounds under
// concurrency, and cpu_ns is 0 where getrusage is unavailable.
type QueryCost struct {
	WallNS     int64 `json:"wall_ns"`
	CPUNS      int64 `json:"cpu_ns"`
	AllocBytes int64 `json:"alloc_bytes"`
	// StatesExpanded counts distinct states the search visited (the final
	// escalation attempt's figure).
	StatesExpanded int   `json:"states_expanded"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	// CompiledMatches/FallbackMatches split rule attempts between compiled
	// matchers and the interpreter; CompiledShare is the compiled fraction
	// in [0,1].
	CompiledMatches int64   `json:"compiled_matches"`
	FallbackMatches int64   `json:"fallback_matches"`
	CompiledShare   float64 `json:"compiled_share"`
	// EscalationAttempts counts budget-escalation rungs (1 = resolved on
	// the first budget).
	EscalationAttempts int `json:"escalation_attempts"`
	// DegradationLevel: 0 = none, 1 = transition cache shed, 2 = search
	// stopped by the memory budget.
	DegradationLevel int `json:"degradation_level"`
}

// QueryRequest asks for one standalone ROSA query. POST /v1/query. Either
// Source carries a query file (rosa.ParseQuery format), or the structured
// fields describe one of the paper's attack queries; Source wins when both
// are set.
type QueryRequest struct {
	// Source is a query in the rosa.ParseQuery file format.
	Source string `json:"source,omitempty"`
	// Attack picks a Table I attack (1-4) built from the fields below.
	Attack int `json:"attack,omitempty"`
	// Privs is the permitted privilege set, e.g. "CapSetuid,CapChown".
	Privs string `json:"privs,omitempty"`
	// UID and GID are "real,effective,saved" triples; omitted means
	// 1000,1000,1000.
	UID string `json:"uid,omitempty"`
	GID string `json:"gid,omitempty"`
	// Syscalls is the attacker's syscall inventory.
	Syscalls []string `json:"syscalls,omitempty"`
	// Extended runs against the §X extended system (Capsicum, CFI).
	Extended bool `json:"extended,omitempty"`
	// Priority orders queued requests (see AnalyzeRequest.Priority).
	Priority int `json:"priority,omitempty"`
	// Search tunes the query's search.
	Search SearchParams `json:"search,omitempty"`
}

// QueryResponse is the standalone query's answer.
type QueryResponse struct {
	APIVersion string `json:"api_version"`
	// Description says what was checked (the attack's Table I description,
	// or "query file" for Source submissions).
	Description string `json:"description"`
	// Result is the verdict.
	Result QueryResult `json:"result"`
}

// ProgramsResponse lists the modeled programs /v1/analyze accepts.
// GET /v1/programs.
type ProgramsResponse struct {
	APIVersion string   `json:"api_version"`
	Programs   []string `json:"programs"`
}

// Job status words: a job is admitted into the queue (queued), picked up by
// a worker (running), and finished (done) — done covers success and failure
// alike; the stored result or error envelope says which.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
)

// JobRequest submits an analyze or query request for asynchronous execution
// with live observability. Exactly one of the two fields must be set; the
// inner request is identical to what the synchronous endpoint accepts, and
// the job's terminal result is byte-identical to what that endpoint would
// have returned. POST /v1/jobs.
type JobRequest struct {
	Analyze *AnalyzeRequest `json:"analyze,omitempty"`
	Query   *QueryRequest   `json:"query,omitempty"`
}

// JobResponse acknowledges an admitted job. POST /v1/jobs → 202.
type JobResponse struct {
	APIVersion string `json:"api_version"`
	// ID is the job's opaque identifier.
	ID string `json:"id"`
	// Status is the job's state at admission (normally "queued").
	Status string `json:"status"`
	// RequestID is the correlation id (the X-Request-ID header, generated if
	// the client sent none) joining this job's logs, spans, and SSE stream.
	RequestID string `json:"request_id,omitempty"`
	// StatusURL and EventsURL locate the job's status and SSE stream.
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
}

// JobStatusResponse reports a job's state. GET /v1/jobs/{id}.
type JobStatusResponse struct {
	APIVersion string `json:"api_version"`
	ID         string `json:"id"`
	// Status is "queued", "running", or "done".
	Status string `json:"status"`
	// Kind is "analyze" or "query".
	Kind string `json:"kind"`
	// RequestID is the job's correlation id.
	RequestID string `json:"request_id,omitempty"`
	// QueuePosition is the 1-based position among queued jobs while Status
	// is "queued" (1 = next to run); 0 otherwise.
	QueuePosition int `json:"queue_position,omitempty"`
	// Stats is the latest progress snapshot (Options.OnStats), present once
	// the search has ticked at least once.
	Stats *SearchStats `json:"stats,omitempty"`
	// DroppedEvents counts events this job's subscribers lost to bounded
	// stream rings (journal truncation is Stats.DroppedEvents).
	DroppedEvents int64 `json:"dropped_events,omitempty"`
	// Error is the failure detail once a job finished unsuccessfully; the
	// SSE stream carries the same detail as its terminal error frame.
	Error *ErrorDetail `json:"error,omitempty"`
}

// JobEvent is the wire form of one recorder event in an SSE `event` frame:
// the control-plane kinds a stream forwards (level_start, goal_matched,
// degraded, escalated), not the full journal.
type JobEvent struct {
	// Kind is the event kind word (telemetry.EventKind.String).
	Kind string `json:"kind"`
	// Search is the 1-based search id within the job (one per query of an
	// analysis, one per escalation attempt of a raw query).
	Search int32 `json:"search"`
	// Depth is the BFS depth the event belongs to.
	Depth int32 `json:"depth"`
	// N is the kind-specific count: frontier size (level_start), states
	// explored (goal_matched), memory estimate (degraded), next budget
	// (escalated).
	N int64 `json:"n,omitempty"`
	// Rule is the rule name when the kind carries one.
	Rule string `json:"rule,omitempty"`
	// TNS is the event's monotonic timestamp in nanoseconds since the
	// job recorder's epoch.
	TNS int64 `json:"t_ns"`
}

// SlowQuery is one slow-query journal entry: the request's identity (kind,
// label, correlation id, priority), when it ran, what it answered, and its
// full cost vector. GET /v1/slowlog items.
type SlowQuery struct {
	// Seq is the entry's admission sequence number (monotonic per server
	// process); among equal costs, higher means more recent.
	Seq int64 `json:"seq"`
	// Time is the admission time, RFC 3339 with nanoseconds.
	Time string `json:"time"`
	// Kind is "analyze" or "query" — which endpoint family ran the work
	// (synchronous and job submissions look identical here).
	Kind string `json:"kind"`
	// Label names the work: the program for analyses, the attack/source
	// description for queries.
	Label string `json:"label"`
	// RequestID is the request's correlation id (the X-Request-ID header),
	// joining this entry to the access log, spans, and SSE stream.
	RequestID string `json:"request_id,omitempty"`
	// Priority is the request's queue priority.
	Priority int `json:"priority,omitempty"`
	// QueueWaitNS is how long the request sat in the admission queue before
	// a worker picked it up.
	QueueWaitNS int64 `json:"queue_wait_ns"`
	// Verdicts summarizes the outcome in paper glyphs, one per query in grid
	// order (e.g. "✗✓⏱✗" for an analysis phase row, "✓" for one query).
	Verdicts string `json:"verdicts,omitempty"`
	// Cost is the request's aggregated cost vector — the sum over every
	// rosa query the request ran.
	Cost QueryCost `json:"cost"`
}

// SlowLogResponse is the slow-query journal: the top-K costliest requests
// since boot, costliest first. GET /v1/slowlog.
type SlowLogResponse struct {
	APIVersion string `json:"api_version"`
	// Capacity is the journal's bound (the K of top-K).
	Capacity int `json:"capacity"`
	// Admitted counts journal admissions since boot (entries that made the
	// top-K at the time, including since-evicted ones).
	Admitted int64 `json:"admitted"`
	// Entries are the retained queries, ordered by descending cost (wall
	// time), ties newest first.
	Entries []SlowQuery `json:"entries"`
}

// HistogramV1 is one histogram's summary in /v1/metrics.json: exact count,
// sum and extrema plus interpolated quantiles (see telemetry.Histogram).
type HistogramV1 struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// MetricsResponse is the telemetry registry as JSON — the same snapshot the
// Prometheus text endpoint renders, for consumers that want typed values
// without a Prometheus parser. GET /v1/metrics.json.
type MetricsResponse struct {
	APIVersion string                 `json:"api_version"`
	Counters   map[string]int64       `json:"counters"`
	Gauges     map[string]int64       `json:"gauges"`
	Histograms map[string]HistogramV1 `json:"histograms"`
}

// VersionInfo is the build identity debug.ReadBuildInfo exposes: enough for
// "what exactly is running here" across a fleet.
type VersionInfo struct {
	// Module is the main module path.
	Module string `json:"module"`
	// ModuleVersion is the module's version ("(devel)" for source builds).
	ModuleVersion string `json:"module_version,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision and Time are the VCS commit and commit time, when the build
	// had VCS metadata stamped.
	Revision string `json:"revision,omitempty"`
	Time     string `json:"time,omitempty"`
	// Modified reports uncommitted changes at build time.
	Modified bool `json:"modified,omitempty"`
}

// VersionResponse reports the server's build identity. GET /v1/version.
type VersionResponse struct {
	APIVersion string `json:"api_version"`
	VersionInfo
}

// ErrorV1 is the uniform, versioned error envelope every endpoint returns on
// failure, alongside the HTTP status. Every rejection class — validation,
// not-found, queue-full, admission control, deadline expiry, shutdown,
// handler fault — renders through this one shape (pinned by the envelope
// golden test), so a client needs exactly one error decoder.
type ErrorV1 struct {
	APIVersion string      `json:"api_version"`
	Error      ErrorDetail `json:"error"`
}

// ErrorResponse is the pre-unification name for ErrorV1, kept as an alias so
// embedders' decode call sites keep compiling; new code should say ErrorV1.
type ErrorResponse = ErrorV1

// ErrorDetail carries the machine code and the human message.
type ErrorDetail struct {
	// Code is one of the Code* constants below — a stable, machine-matchable
	// word; clients branch on it, never on Message.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// RetryAfterMS, when non-zero, is the server's backoff hint: how long a
	// client should wait before retrying, derived from the current queue-wait
	// p95. Present on load-shedding rejections ("queue_full",
	// "admission_rejected"); the same hint rides the Retry-After header in
	// whole seconds.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Error codes. Stable wire contract: codes are added, never renamed.
const (
	// CodeBadRequest: the request body failed validation (400).
	CodeBadRequest = "bad_request"
	// CodeNotFound: unknown program, job, or route (404).
	CodeNotFound = "not_found"
	// CodeQueueFull: the pending queue is at its depth bound (503 +
	// retry_after_ms).
	CodeQueueFull = "queue_full"
	// CodeAdmissionRejected: admission control shed the request — the
	// estimated-cost backlog budget is spent, or a brownout level rejects the
	// request's priority class (429 + retry_after_ms).
	CodeAdmissionRejected = "admission_rejected"
	// CodeDeadlineExceeded: the request's deadline_ms expired while it was
	// still queued; it never ran (504).
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeShutdown: the server began graceful drain; queued-but-unstarted
	// work is withdrawn with this terminal answer instead of silence (503).
	CodeShutdown = "shutdown"
	// CodeCanceled: the client went away before the work started (503; the
	// envelope is best-effort).
	CodeCanceled = "canceled"
	// CodeInternal: a handler fault — including a recovered panic (500).
	CodeInternal = "internal"
)

// CodeSaturated is the pre-unification name for CodeQueueFull. Deprecated:
// new code matches CodeQueueFull; the wire value changed to "queue_full".
const CodeSaturated = CodeQueueFull

// Encode writes v as two-space-indented JSON with a trailing newline — the
// one rendering every producer (server handlers, privanalyzer -json) uses,
// so equal values are equal bytes everywhere.
func Encode(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}
