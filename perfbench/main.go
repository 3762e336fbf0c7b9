// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload against the unmodified programs — the privanalyzer CLI
// for the cold paper reproduction, a privanalyzerd child process for the
// served workloads — checks every answer against the paper's cells, and
// prints the metrics as one JSON object on the last line of stdout.
//
// Run it from the repository root through perfbench/run.sh, which builds
// the programs and perfbench itself from source first:
//
//	bash perfbench/run.sh --workload reproduce --seed 1 --seconds 45 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// in-process pass and the workload's served traffic with client spans and
// reports the per-layer metrics instead. See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// workloads perfbench knows. BENCHMARK.json lists them in this order, all
// but serve-analyze, whose run-to-run spread on the shared reference
// machine exceeds the largest bound a metric may have (see README.md); it
// stays runnable for paired runs and feeds the traced reproduce run.
var workloads = []string{"reproduce", "serve-analyze", "serve-query"}

// Units of every metric perfbench reports.
var units = map[string]string{
	"setup_s":        "s",
	"latency_p50_ms": "ms",
	"latency_p95_ms": "ms",
	"latency_p99_ms": "ms",
	"ops_per_s":      "1/s",
	"cpu_s_per_op":   "s",
	"peak_rss_mb":    "MB",

	"programs.build_ms":         "ms",
	"autopriv.analyze_ms":       "ms",
	"autopriv.removals":         "count",
	"chronopriv.run_ms":         "ms",
	"chronopriv.run_ms.thttpd":  "ms",
	"chronopriv.run_ms.sshd":    "ms",
	"chronopriv.ns_per_instr":   "ns",
	"chronopriv.alloc_mb":       "MB",
	"chronopriv.instructions":   "count",
	"rosa.query_ms.cold":        "ms",
	"rosa.query_ms.warm":        "ms",
	"rosa.query_ms.suRef":       "ms",
	"rosa.states":               "count",
	"rosa.states_per_s":         "1/s",
	"rosa.cache_hit_ratio.cold": "ratio",
	"rosa.cache_hit_ratio.warm": "ratio",
	"rosa.dedup_ratio":          "ratio",
	"rosa.escalation_attempts":  "count",
	"rosa.compiled_share":       "ratio",
	"rosa.alloc_mb":             "MB",
	"core.analyze_ms":           "ms",
	"core.self_ms":              "ms",
	"api.encode_ms":             "ms",
	"api.response_bytes":        "bytes",
	"server.queue_wait_p50_ms":  "ms",
	"server.queue_wait_p95_ms":  "ms",
	"server.handler_p50_ms":     "ms",
	"server.overhead_p50_ms":    "ms",
	"server.checker_hit_ratio":  "ratio",
	"server.shed_total":         "count",
	"trace.overhead_pct":        "%",
	"trace.layer_sum_pct":       "%",
	"trace.dominant_share_pct":  "%",
}

// benchEnv is one invocation's configuration.
type benchEnv struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    *tracer // nil for untraced runs
	paper    *paper
}

// Where run.sh puts the programs, and where runs leave their records;
// both under the checkout's .bench_build/.
const (
	binDir = ".bench_build/bin"
	outDir = ".bench_build/perfbench"
)

func (e *benchEnv) bin(name string) string { return filepath.Join(binDir, name) }

func (e *benchEnv) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// outcome is what a workload measured.
type outcome struct {
	attempted int
	fail      failures
	setup     []float64 // seconds per set-up
	latMS     []float64 // one per attempted operation
	opsPerS   float64
	cpuPerOp  float64 // seconds
	rssMB     float64
	print     *fingerprint
	server    map[string]float64 // served runs: server-layer metrics
	gen       map[string]float64 // served runs: generator shares
	classes   map[string]float64 // served runs: latency p50 and count per request class
	// Served runs: ops/s and CPU s/op of each slice (the metrics are their
	// medians).
	sliceRates, sliceCosts []float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", fmt.Sprint("workload: one of ", workloads))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same requests")
	seconds := fs.Int("seconds", 30, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %v, --seconds ≥ 1, --trace 0|1\n", workloads)
		return 2
	}
	for _, b := range []string{"privanalyzer", "privanalyzerd"} {
		if _, err := os.Stat(filepath.Join(binDir, b)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v (build with perfbench/run.sh)\n", err)
			return 2
		}
	}
	env := &benchEnv{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *traceFlag == 1 {
		env.trace = newTracer()
	}
	// Leave headroom under the 180 s a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	p, err := loadPaper()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env.paper = p

	res, details, err := measure(ctx, env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d", env.workload, env.seed, *traceFlag)
	if env.trace != nil {
		if err := env.trace.write(filepath.Join(outDir, name+".spans.jsonl")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if details.print != nil {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		key, err := buildKey(env.bin("privanalyzer"), env.bin("privanalyzerd"), exe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := pinPrint(outDir, key, *details.print); err != nil {
			if !errors.Is(err, errDrift) {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			details.fail.add(true, err.Error())
		}
	}
	res.Failed = details.fail.n
	res.Correct = res.Failed == 0
	if err := writeDetails(filepath.Join(outDir, name+".json"), env, res, details); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	report(env, res, details)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload and assembles its metrics: end-to-end ones
// untraced, per-layer ones traced.
func measure(ctx context.Context, env *benchEnv) (*result, *outcome, error) {
	res := &result{Metrics: make(map[string]metric)}
	put := func(name string, v float64) {
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	if env.trace != nil {
		o := &outcome{}
		layerMetrics, err := runLayers(ctx, env, o)
		if err != nil {
			return nil, nil, err
		}
		served, err := runServed(ctx, env)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range layerMetrics {
			put(k, v)
		}
		for k, v := range served.server {
			put(k, v)
		}
		o.attempted += served.attempted
		o.fail.merge(&served.fail)
		if o.print != nil && served.print != nil && *o.print != *served.print {
			o.fail.add(true, fmt.Sprintf("%v: in-process pass %+v, served warm-up %+v", errDrift, *o.print, *served.print))
		}
		o.latMS, o.gen, o.classes = served.latMS, served.gen, served.classes
		res.Attempted = o.attempted
		return res, o, nil
	}

	var o *outcome
	var err error
	if env.workload == "reproduce" {
		o, err = runReproduce(ctx, env)
	} else {
		o, err = runServed(ctx, env)
	}
	if err != nil {
		return nil, nil, err
	}
	res.Attempted = o.attempted
	put("setup_s", median(o.setup))
	put("latency_p50_ms", quantile(o.latMS, 0.50))
	put("latency_p95_ms", quantile(o.latMS, 0.95))
	put("latency_p99_ms", quantile(o.latMS, 0.99))
	put("ops_per_s", o.opsPerS)
	put("cpu_s_per_op", o.cpuPerOp)
	put("peak_rss_mb", o.rssMB)
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || m.Value <= 0 {
			return nil, nil, fmt.Errorf("metric %s measured %v: no completed operation", name, m.Value)
		}
	}
	return res, o, nil
}

// report prints the human-readable summary to stderr: every metric with
// its unit, fail_share, percentile sample support, generator shares, the
// fingerprint, and the first failures.
func report(env *benchEnv, res *result, o *outcome) {
	env.logf("perfbench %s seed=%d seconds=%v trace=%v", env.workload, env.seed, env.seconds.Seconds(), env.trace != nil)
	for _, k := range sortedKeys(res.Metrics) {
		env.logf("  %-28s %16.6f %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	env.logf("  %-28s %16.6f (failed %d of %d attempted)", "fail_share",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if len(o.latMS) > 0 {
		env.logf("  latency samples %d; beyond p95: %d, beyond p99: %d (a percentile needs ≥10)",
			len(o.latMS), beyond(o.latMS, 0.95), beyond(o.latMS, 0.99))
	}
	for _, k := range sortedKeys(o.gen) {
		env.logf("  generator %-28s %.4f", k, o.gen[k])
	}
	if o.print != nil {
		env.logf("  fingerprint: instructions=%d states=%d verdicts=%s", o.print.Instructions, o.print.States, o.print.VerdictHash)
	}
	for _, m := range o.fail.msgs {
		env.logf("  FAIL: %s", m)
	}
	if o.fail.drift {
		env.logf("  FAIL: determinism drift")
	}
}

// writeDetails records the run — metrics, generator shares, fingerprint,
// raw latencies and set-up times — for later comparison.
func writeDetails(path string, env *benchEnv, res *result, o *outcome) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload":           env.workload,
		"seed":               env.seed,
		"seconds":            env.seconds.Seconds(),
		"traced":             env.trace != nil,
		"result":             res,
		"generator":          o.gen,
		"classes":            o.classes,
		"slice_ops_per_s":    o.sliceRates,
		"slice_cpu_s_per_op": o.sliceCosts,
		"fingerprint":        o.print,
		"failures":           o.fail.msgs,
		"setup_s":            o.setup,
		"latency_ms":         o.latMS,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
