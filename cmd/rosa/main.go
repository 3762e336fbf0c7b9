// Command rosa runs the ROSA bounded model checker standalone: it builds
// one of the paper's attack queries for a chosen privilege set, credential
// triple, and syscall inventory, and prints the verdict — with the witness
// syscall sequence when the attack is possible.
//
// Usage:
//
//	rosa -attack 1 -privs CapSetuid -uid 1000,1000,1000 -gid 1000,1000,1000 \
//	     -syscalls open,setuid,chown
//	rosa -example          # the paper's Figures 2-4 worked example
//	rosa -query file.rosa  # a hand-written query file (see rosa.ParseQuery)
//	rosa -example -maude   # print the query in Maude syntax too
//	rosa -example -stats   # print search statistics (states/sec, frontier, …)
//	rosa -query f.rosa -timeout 5s -budget 50000  # bounded wall clock and states
//	rosa -example -explain                # witness annotated from the recorder
//	rosa -example -trace-out trace.json   # Chrome Trace / Perfetto export
//	rosa -example -progress 200ms         # live progress line on stderr
//	rosa -example -log-level debug        # structured logs on stderr
//	rosa -watch http://host:7177/v1/jobs/j-ab12  # follow a privanalyzerd job's
//	                                             # live SSE stream (progress on
//	                                             # stderr, result JSON on stdout)
//	rosa -version          # build identity (module, go toolchain, VCS revision)
//
// SIGINT/SIGTERM interrupt the search gracefully: the partial verdict (⏱)
// and its statistics are flushed before exit; a second signal kills
// immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"privanalyzer/internal/attacks"
	"privanalyzer/internal/caps"
	"privanalyzer/internal/cmdutil"
	"privanalyzer/internal/report"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
	"privanalyzer/internal/telemetry"
	"privanalyzer/internal/vkernel"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rosa", flag.ContinueOnError)
	var search cmdutil.SearchFlags
	var logf cmdutil.LogFlags
	search.Register(fs)
	logf.Register(fs)
	var (
		attack   = fs.Int("attack", 1, "attack to model (1-4, Table I)")
		privsArg = fs.String("privs", "", `permitted privilege set, e.g. "CapSetuid,CapChown" (empty for none)`)
		uidArg   = fs.String("uid", "1000,1000,1000", "real,effective,saved uid")
		gidArg   = fs.String("gid", "1000,1000,1000", "real,effective,saved gid")
		syscalls = fs.String("syscalls", "open,chown,setuid,setresuid,setgid,setresgid,kill,socket,bind,connect", "comma-separated syscall inventory")
		example  = fs.Bool("example", false, "run the paper's worked example (Figures 2-4) instead")
		query    = fs.String("query", "", "run a query file (rosa.ParseQuery format) instead")
		maude    = fs.Bool("maude", false, "also print the query in the paper's Maude syntax")
		simulate = fs.Bool("simulate", false, "follow one deterministic execution (Maude's rewrite) instead of searching")
		explain  = fs.Bool("explain", false, "annotate the witness from the search flight recorder: per-step depth, frontier size, and time-to-discovery")
		progress = fs.Duration("progress", 0, "print a live progress line to stderr at this interval, e.g. 200ms (0 = off)")
		watch    = fs.String("watch", "", "follow a privanalyzerd job's live event stream at this URL (the status_url or events_url from POST /v1/jobs) instead of searching locally")
	)
	ver := cmdutil.VersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ver {
		cmdutil.PrintVersion(os.Stdout, "rosa")
		return 0
	}
	if *watch != "" {
		return watchJob(*watch)
	}

	logger, err := logf.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosa:", err)
		return 2
	}
	rep := reporter{search: search, explain: *explain, progress: *progress, logger: logger}

	if *query != "" {
		src, err := os.ReadFile(*query)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rosa:", err)
			return 1
		}
		q, err := rosa.ParseQuery(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, err) // already prefixed "rosa:"
			return 1
		}
		if *maude {
			fmt.Println(q.MaudeSearch(""))
		}
		if *simulate {
			return simulateQuery(q)
		}
		return rep.report("query file "+*query, q)
	}

	if *example {
		return runExample(*maude, rep)
	}

	privs, err := caps.ParseSet(*privsArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosa:", err)
		return 2
	}
	uid, err := parseTriple(*uidArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosa: bad -uid:", err)
		return 2
	}
	gid, err := parseTriple(*gidArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosa: bad -gid:", err)
		return 2
	}
	id := attacks.ID(*attack)
	creds := rosa.Creds{
		RUID: uid[0], EUID: uid[1], SUID: uid[2],
		RGID: gid[0], EGID: gid[1], SGID: gid[2],
	}
	q := attacks.Build(id, strings.Split(*syscalls, ","), creds, privs)
	return rep.report(id.Description(), q)
}

func parseTriple(s string) ([3]int, error) {
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

// runExample executes the paper's Figures 2-4 query: can a process with
// mismatched credentials open /etc/passwd for reading given one use each of
// open, setuid(CapSetuid), chown(CapChown, group fixed 41), and chmod?
func runExample(maude bool, rep reporter) int {
	q := &rosa.Query{
		Objects: []*rewrite.Term{
			rosa.Process(1, rosa.Creds{EUID: 10, RUID: 11, SUID: 12, EGID: 10, RGID: 11, SGID: 12}, nil, nil),
			rosa.DirEntry(2, "/etc", vkernel.MustMode("rwxrwxrwx"), 40, 41, 3),
			rosa.File(3, "/etc/passwd", vkernel.MustMode("---------"), 40, 41),
			rosa.User(10),
		},
		Messages: []*rewrite.Term{
			rosa.OpenMsg(1, 3, rosa.OpenRead, caps.EmptySet),
			rosa.SetuidMsg(1, rosa.Wild, caps.NewSet(caps.CapSetuid)),
			rosa.ChownMsg(1, rosa.Wild, rosa.Wild, 41, caps.NewSet(caps.CapChown)),
			rosa.ChmodMsg(1, rosa.Wild, vkernel.MustMode("rwxrwxrwx"), caps.EmptySet),
		},
		Goal: rosa.GoalFileInReadSet(3),
	}
	if maude {
		fmt.Println(q.MaudeSearch("3 in H:Set{Int}"))
	}
	return rep.report("worked example: open /etc/passwd for reading", q)
}

// simulateQuery follows one deterministic execution and prints the trace.
func simulateQuery(q *rosa.Query) int {
	final, trace, err := q.Simulate(1000)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosa:", err)
		return 1
	}
	fmt.Printf("deterministic execution (%d steps):\n%s", len(trace), rewrite.FormatWitness(trace))
	fmt.Printf("final state: %s\n", final)
	return 0
}

// reporter carries the search-tuning and observability flags shared by every
// query mode.
type reporter struct {
	search   cmdutil.SearchFlags
	explain  bool
	progress time.Duration
	logger   *slog.Logger
}

func (r reporter) report(what string, q *rosa.Query) int {
	fmt.Printf("query: %s\n", what)
	fmt.Printf("initial state: %s\n\n", q.InitialState())
	// The shared flag surface reaches the query through the wire schema's
	// conversion point — identical semantics to a privanalyzerd request.
	if err := r.search.Params().Apply(q); err != nil {
		fmt.Fprintln(os.Stderr, "rosa:", err)
		return 2
	}

	// -explain and -trace-out both need the flight recorder; -trace-out also
	// needs the span registry for the pipeline track.
	var rec *telemetry.Recorder
	if r.explain || r.search.TraceOut != "" {
		rec = telemetry.NewRecorder(0)
		q.Recorder = rec
	}
	var reg *telemetry.Registry
	ctx := context.Background()
	if r.search.TraceOut != "" {
		reg = telemetry.New()
		ctx = telemetry.NewContext(ctx, reg)
	}
	ctx = telemetry.WithLogger(ctx, r.logger)
	progressShown := false
	if r.progress > 0 {
		q.StatsInterval = r.progress
		budget := q.MaxStates
		if budget <= 0 {
			budget = rosa.DefaultMaxStates
		}
		q.OnStats = func(st *rewrite.SearchStats) {
			// A search that resolves before its first interval tick never
			// painted a line; printing the unconditional final snapshot
			// would leave a stale one-off progress line behind the verdict.
			if st.Final && !progressShown {
				return
			}
			progressShown = true
			frontier := 0
			if len(st.Frontier) > 0 {
				frontier = st.Frontier[len(st.Frontier)-1]
			}
			hitRate := 0.0
			if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
				hitRate = 100 * float64(st.CacheHits) / float64(lookups)
			}
			fmt.Fprintf(os.Stderr, "\rdepth %-3d  %9d states (%.0f/s)  frontier %-7d  cache %5.1f%%  budget %5.1f%%  ",
				st.Depth, st.StatesExplored, st.StatesPerSec(), frontier,
				hitRate, 100*float64(st.StatesExplored)/float64(budget))
		}
	}
	if r.search.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.search.Timeout)
		defer cancel()
	}
	// Graceful SIGINT/SIGTERM: the first signal cancels the search, which
	// winds down promptly and still prints the partial result below; a second
	// signal kills.
	ctx, stopSignals := cmdutil.SignalContext(ctx)
	defer stopSignals()
	sp, ctx := telemetry.StartSpan(ctx, "rosa.query", "query", what)
	// A Checker, as privanalyzerd runs /v1/query: the query takes the served
	// path, transition cache included, so -stats reads the cache counters a
	// /v1/query response with "stats" reports for the same query.
	res, err := rosa.NewChecker().Run(ctx, q)
	if progressShown {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosa:", err)
		return 1
	}
	if res != nil {
		sp.SetLabel("verdict", res.Verdict.String())
	}
	sp.End()
	fmt.Printf("verdict: %s  (%d states explored in %s)\n", res.Verdict, res.StatesExplored, res.Elapsed)
	if res.Err != nil {
		fmt.Printf("search fault (isolated, verdict ⏱): %v\n", res.Err)
	}
	if res.Verdict == rosa.Vulnerable {
		fmt.Printf("\nwitness (attack syscall sequence):\n%s", rewrite.FormatWitness(res.Witness))
	}
	if r.explain {
		fmt.Printf("\n%s", report.ExplainWitness(res, rec.Journal()))
		if n := rec.Dropped(); n > 0 {
			fmt.Printf("(flight recorder overflowed: %d oldest events dropped)\n", n)
		}
	}
	if r.search.Stats && res.Stats != nil {
		fmt.Printf("\n%s", report.SearchStatsText(res.Stats))
	}
	if r.search.TraceOut != "" {
		if err := writeTrace(r.search.TraceOut, reg, rec); err != nil {
			fmt.Fprintln(os.Stderr, "rosa:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s (load in ui.perfetto.dev)\n", r.search.TraceOut)
	}
	return 0
}

// writeTrace writes the combined span + recorder capture as Chrome Trace
// Event JSON.
func writeTrace(path string, reg *telemetry.Registry, rec *telemetry.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteTrace(f, reg, rec, nil); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
