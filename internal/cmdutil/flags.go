package cmdutil

import (
	"flag"
	"fmt"
	"log/slog"
	"time"

	"privanalyzer/internal/api"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/telemetry"
)

// LogFlags is the structured-logging flag pair every binary registers.
type LogFlags struct {
	// Level is the -log-level value ("", debug, info, warn, error).
	Level string
	// JSON is the -log-json switch.
	JSON bool
}

// Register installs -log-level and -log-json on fs.
func (l *LogFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&l.Level, "log-level", "",
		"emit structured logs to stderr at this level (debug, info, warn, error; empty = off)")
	fs.BoolVar(&l.JSON, "log-json", false,
		"render structured logs as JSON (implies -log-level info when unset)")
}

// Logger builds the stderr logger the flags describe.
func (l LogFlags) Logger() (*slog.Logger, error) {
	return telemetry.NewCLILogger(l.Level, l.JSON)
}

// SearchFlags is the search-tuning flag surface the query-running binaries
// (rosa, privanalyzer) and the privanalyzerd request schema share. Each
// field is one flag, and Params maps the set onto api.SearchParams — the
// same struct a server request unmarshals into — so a CLI flag and the
// identically-named request field cannot mean different things: both reach
// rewrite.Options through api.SearchParams.Options.
type SearchFlags struct {
	// Budget is -budget: the per-query state cap (escalation ladder cap).
	Budget int
	// Workers is -workers: search workers per depth level.
	Workers int
	// Escalate is -escalate: "", "off", or start:factor[:max].
	Escalate string
	// MemBudget is -mem-budget: soft per-query memory budget in bytes.
	MemBudget int64
	// Timeout is -timeout: the wall-clock limit; expired deadlines yield ⏱.
	Timeout time.Duration
	// Stats is -stats: collect and print per-query engine statistics.
	Stats bool
	// NoCost is -no-cost: disable the per-query cost ledger.
	NoCost bool
	// TraceOut is -trace-out: a Chrome Trace Event JSON output path.
	TraceOut string
}

// Register installs the shared search flags on fs.
func (f *SearchFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Budget, "budget", 0,
		"per-query state budget — caps the escalation ladder (0 = default)")
	fs.IntVar(&f.Workers, "workers", 0,
		fmt.Sprintf("search workers per depth level (0 = one per CPU, 1 = sequential, at most %d)", rewrite.MaxWorkers))
	fs.StringVar(&f.Escalate, "escalate", "",
		`budget escalation: "off" for one-shot at the full budget, or start:factor[:max] (empty = escalate with defaults)`)
	fs.Int64Var(&f.MemBudget, "mem-budget", 0,
		"soft memory budget in bytes over interner+cache+frontier: shed the cache on first breach, stop with ⏱ on the second (0 = off)")
	fs.DurationVar(&f.Timeout, "timeout", 0,
		"wall-clock search limit; an expired deadline yields the ⏱ verdict (0 = none)")
	fs.BoolVar(&f.Stats, "stats", false,
		"print the search statistics (states/sec, frontier shape, dedup rate) and the per-rule cost profile")
	fs.BoolVar(&f.NoCost, "no-cost", false,
		"disable the per-query cost ledger (wall/CPU/alloc accounting; ablation)")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write the search as Chrome Trace Event JSON to this file (load in ui.perfetto.dev)")
}

// Params converts the flag values to the wire-schema knobs. TraceOut has no
// wire counterpart (a server writes no files on the client's behalf) and
// stays a process-local concern.
func (f SearchFlags) Params() api.SearchParams {
	return api.SearchParams{
		Budget:    f.Budget,
		Workers:   f.Workers,
		Escalate:  f.Escalate,
		MemBudget: f.MemBudget,
		Timeout:   api.Duration(f.Timeout),
		Stats:     f.Stats,
		NoCost:    f.NoCost,
	}
}

// ToSearchOptions resolves the flags to engine options through the wire
// schema's single conversion point.
func (f SearchFlags) ToSearchOptions() (rewrite.Options, error) {
	return f.Params().Options()
}
