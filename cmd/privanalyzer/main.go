// Command privanalyzer runs the full PrivAnalyzer pipeline — AutoPriv
// static analysis, ChronoPriv dynamic measurement, and ROSA bounded model
// checking — over the paper's test programs and prints the evaluation
// tables.
//
// Usage:
//
//	privanalyzer -tables                  # Tables I, II and IV (static)
//	privanalyzer -program passwd          # one program's Table III rows
//	privanalyzer -program all             # Tables III and V in full
//	privanalyzer -program su -times       # the Figure 5-11 search costs
//	privanalyzer -program su -budget 10000
//	privanalyzer -program su -stats       # per-query engine statistics
//	privanalyzer -program su -json        # the api.AnalyzeResponse wire form
//	                                      # (byte-compatible with privanalyzerd)
//	privanalyzer -program all -timeout 1m # wall-clock limit; late queries get ⏱
//	privanalyzer -program all -telemetry-json out.jsonl -prom metrics.txt
//	privanalyzer -program thttpd -pprof localhost:6060  # live pprof while it runs
//
// The programs (-program all, -experiments, -diff) are analysed
// concurrently, one goroutine each, and so are each program's attack
// columns (core.AnalyzeAll); every table, JSON document and stderr line is
// emitted after all of them finish, in program order, so the output is the
// same as a one-at-a-time run's.
//
// SIGINT/SIGTERM interrupt the analysis gracefully: finished queries keep
// their verdicts, interrupted ones get ⏱, and the partial tables plus any
// requested telemetry are flushed before exit. A second signal kills the
// process immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"privanalyzer/internal/api"
	"privanalyzer/internal/cmdutil"
	"privanalyzer/internal/core"
	"privanalyzer/internal/interp"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/report"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) (code int) {
	fs := flag.NewFlagSet("privanalyzer", flag.ContinueOnError)
	var search cmdutil.SearchFlags
	var logf cmdutil.LogFlags
	search.Register(fs)
	logf.Register(fs)
	var (
		tables      = fs.Bool("tables", false, "print the static tables (I, II, IV) and exit")
		program     = fs.String("program", "", `program to analyse (one of `+fmt.Sprint(programs.Names())+`, or "all")`)
		times       = fs.Bool("times", false, "also print per-query ROSA search costs (Figures 5-11)")
		chart       = fs.Bool("chart", false, "also print ASCII search-cost charts (Figures 5-11)")
		check       = fs.Bool("check", false, "compare results against the paper's table cells")
		diff        = fs.String("diff", "", `compare two programs' postures, e.g. "su,suRef"`)
		experiments = fs.Bool("experiments", false, "run the full evaluation and print the paper-vs-measured summary")
		jsonOut     = fs.Bool("json", false, "print each analysis as api.AnalyzeResponse JSON (the privanalyzerd wire schema) instead of tables")
		telemJSON   = fs.String("telemetry-json", "", "write the run's telemetry (spans and metrics) as JSONL to this file")
		promPath    = fs.String("prom", "", "write the run's metrics in Prometheus text exposition format to this file")
		pprofAddr   = fs.String("pprof", "", `serve net/http/pprof plus /healthz, /readyz, and /metrics on this address while the run executes (e.g. "localhost:6060"; off by default)`)
	)
	ver := cmdutil.VersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ver {
		cmdutil.PrintVersion(os.Stdout, "privanalyzer")
		return 0
	}
	traceOut := &search.TraceOut
	timeout := &search.Timeout
	stats := &search.Stats

	logger, err := logf.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "privanalyzer:", err)
		return 2
	}
	opts := core.Options{Search: search.ToSearchOptions()}
	ctx := telemetry.WithLogger(context.Background(), logger)
	var reg *telemetry.Registry
	if *telemJSON != "" || *promPath != "" || *traceOut != "" {
		reg = telemetry.New()
		ctx = telemetry.NewContext(ctx, reg)
	}
	var counterTracks []telemetry.CounterTrack
	if *traceOut != "" {
		// The hot-block profile becomes the trace's counter tracks.
		opts.ProfileBlocks = true
	}
	defer func() {
		if err := flushTelemetry(reg, *telemJSON, *promPath); err != nil {
			fmt.Fprintln(os.Stderr, "privanalyzer:", err)
			if code == 0 {
				code = 1
			}
		}
		if *traceOut != "" {
			if err := search.WriteTrace(reg, counterTracks); err != nil {
				fmt.Fprintln(os.Stderr, "privanalyzer:", err)
				if code == 0 {
					code = 1
				}
			} else {
				fmt.Fprintf(os.Stderr, "trace: wrote %s (load in ui.perfetto.dev)\n", *traceOut)
			}
		}
	}()
	if *pprofAddr != "" {
		addr, err := servePprof(*pprofAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "privanalyzer:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "pprof: serving http://%s/debug/pprof/ (also /healthz, /readyz, /metrics)\n", addr)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stopSignals := cmdutil.SignalContext(ctx)
	defer stopSignals()

	if *tables {
		all, err := programs.All()
		if err != nil {
			fmt.Fprintln(os.Stderr, "privanalyzer:", err)
			return 1
		}
		fmt.Println(report.TableI())
		fmt.Println(report.TableII(all))
		var refactored []*programs.Program
		for _, p := range all {
			if p.Refactored {
				refactored = append(refactored, p)
			}
		}
		fmt.Println(report.TableIV(refactored))
		return 0
	}

	if *diff != "" {
		parts := strings.Split(*diff, ",")
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "privanalyzer: -diff wants \"before,after\"")
			return 2
		}
		as, err := core.AnalyzeAll(ctx, []string{strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])}, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "privanalyzer:", err)
			return 1
		}
		fmt.Print(core.Compare(as[0], as[1]))
		return 0
	}

	if *experiments {
		*program = "all"
		*check = true
	}
	if *program == "" {
		fs.Usage()
		return 2
	}

	names := []string{*program}
	if *program == "all" {
		names = programs.Names()
	}

	// The programs are analysed concurrently; everything derived from the
	// analyses is emitted after the join, in program order, so the output
	// matches a one-at-a-time run whatever the schedule.
	analyses, err := core.AnalyzeAll(ctx, names, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "privanalyzer:", err)
		return 1
	}
	var original, refactored []*core.Analysis
	exitCode := 0
	for _, a := range analyses {
		if *traceOut != "" && a.HotBlocks != nil {
			counterTracks = append(counterTracks, hotBlockTrack(a.Program.Name, a.HotBlocks, a.Began, a.Ended))
		}
		for _, qe := range a.Errors {
			fmt.Fprintln(os.Stderr, "privanalyzer: query fault (isolated, verdict ⏱):", qe.Error())
			exitCode = 1
		}
		if a.Program.Refactored {
			refactored = append(refactored, a)
		} else {
			original = append(original, a)
		}
		if *check {
			for _, m := range a.Mismatches() {
				fmt.Fprintln(os.Stderr, "MISMATCH:", m)
				exitCode = 1
			}
		}
	}
	if *jsonOut {
		// The wire schema, byte-for-byte what privanalyzerd returns for the
		// same request — one document per analysed program.
		for _, a := range append(original, refactored...) {
			if err := api.Encode(os.Stdout, api.FromAnalysis(a, *stats)); err != nil {
				fmt.Fprintln(os.Stderr, "privanalyzer:", err)
				return 1
			}
		}
		return exitCode
	}
	if len(original) > 0 {
		fmt.Println(report.EfficacyTable("TABLE III: Security Efficacy Results", original))
	}
	if len(refactored) > 0 {
		fmt.Println(report.EfficacyTable("TABLE V: Results for Refactored Programs", refactored))
	}
	if *times {
		for _, a := range append(original, refactored...) {
			fmt.Println(report.SearchTimes(a))
		}
	}
	if *chart {
		for _, a := range append(original, refactored...) {
			fmt.Println(report.FigureChart(a))
		}
	}
	if *stats {
		all := append(original, refactored...)
		for _, a := range all {
			fmt.Println(report.SearchStatsTable(a))
		}
		var sts []*rewrite.SearchStats
		for _, a := range all {
			for _, pr := range a.Phases {
				sts = append(sts, pr.Stats[:]...)
			}
		}
		if line := report.CompileSummary(sts); line != "" {
			fmt.Println(line)
			fmt.Println()
		}
		if prof := report.MergeRuleProfiles(sts); prof != nil {
			fmt.Println(report.RuleProfileTable(prof))
		}
	}
	if *experiments {
		cmp := report.Compare(append(original, refactored...))
		fmt.Println(cmp)
		if !cmp.Clean() {
			exitCode = 1
		}
	}
	return exitCode
}

// hotBlockTrack turns one analysis's hot-block profile into a Chrome-trace
// counter track: one series per hot block, zero at analysis start and the
// block's instruction count at analysis end, so Perfetto renders the run's
// instruction distribution over the analysis span.
func hotBlockTrack(name string, prof *interp.BlockProfile, start, end time.Time) telemetry.CounterTrack {
	const topN = 8
	zero := make(map[string]int64)
	vals := make(map[string]int64)
	for _, bc := range prof.Top(topN) {
		key := "@" + bc.Fn + ":" + bc.Block
		zero[key] = 0
		vals[key] = bc.Steps
	}
	return telemetry.CounterTrack{
		Name: "hot blocks " + name,
		Samples: []telemetry.CounterSample{
			{T: start, Values: zero},
			{T: end, Values: vals},
		},
	}
}

// flushTelemetry writes the run's telemetry to the files requested by
// -telemetry-json and -prom. A nil registry (neither flag given) is a no-op.
func flushTelemetry(reg *telemetry.Registry, jsonlPath, promPath string) error {
	if reg == nil {
		return nil
	}
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			return err
		}
		if err := reg.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if promPath != "" {
		f, err := os.Create(promPath)
		if err != nil {
			return err
		}
		if err := reg.WriteProm(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
