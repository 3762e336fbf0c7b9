package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func capture(t *testing.T, f func() int) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := f()
	os.Stdout = old
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), code
}

func TestRunTables(t *testing.T) {
	out, code := capture(t, func() int { return run([]string{"-tables"}) })
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	for _, want := range []string{"TABLE I", "TABLE II", "TABLE IV", "thttpd", "SIGKILL", "su.c"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunOneProgramWithCheck(t *testing.T) {
	out, code := capture(t, func() int { return run([]string{"-program", "ping", "-check", "-times", "-chart"}) })
	if code != 0 {
		t.Fatalf("exit code = %d (mismatches against the paper?)\n%s", code, out)
	}
	for _, want := range []string{
		"TABLE III", "ping_priv1", "CapNetAdmin,CapNetRaw",
		"ROSA search cost", "Search cost for ping",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRefactoredGoesToTableV(t *testing.T) {
	out, code := capture(t, func() int { return run([]string{"-program", "passwdRef", "-check"}) })
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	if !strings.Contains(out, "TABLE V") || strings.Contains(out, "TABLE III") {
		t.Errorf("refactored program should print under Table V only:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if _, code := capture(t, func() int { return run(nil) }); code != 2 {
		t.Errorf("no args exit = %d, want 2", code)
	}
	if _, code := capture(t, func() int { return run([]string{"-program", "emacs"}) }); code != 1 {
		t.Errorf("unknown program exit = %d, want 1", code)
	}
}

func TestRunDiff(t *testing.T) {
	out, code := capture(t, func() int { return run([]string{"-diff", "su,suRef"}) })
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	for _, want := range []string{"security posture change: su -> suRef", "improved", "strict improvement"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if _, code := capture(t, func() int { return run([]string{"-diff", "su"}) }); code != 2 {
		t.Errorf("malformed -diff exit = %d, want 2", code)
	}
}

func TestRunStatsFlag(t *testing.T) {
	out, code := capture(t, func() int { return run([]string{"-program", "ping", "-stats"}) })
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	for _, want := range []string{"ROSA search statistics for ping", "States/sec", "Dedup%"} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output missing %q:\n%s", want, out)
		}
	}
}

// TestRunTelemetryFlags runs one program with -telemetry-json and -prom and
// validates both artifacts: the JSONL must be a parseable span tree (root
// analyze span, stage and query children) ending in a metrics record, and the
// Prometheus text must round-trip through a format parse.
func TestRunTelemetryFlags(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "out.jsonl")
	prom := filepath.Join(dir, "metrics.txt")
	out, code := capture(t, func() int {
		return run([]string{"-program", "ping", "-telemetry-json", jsonl, "-prom", prom})
	})
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}

	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Type   string            `json:"type"`
		ID     int64             `json:"id"`
		Parent int64             `json:"parent"`
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels"`
	}
	var recs []rec
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("%s line %d is not valid JSON: %v\n%s", jsonl, i+1, err, line)
		}
		recs = append(recs, r)
	}
	names := make(map[string]int)
	var rootID int64
	for _, r := range recs {
		if r.Type != "span" {
			continue
		}
		names[r.Name]++
		if r.Name == "analyze" {
			rootID = r.ID
			if r.Labels["program"] != "ping" {
				t.Errorf("root span labels = %v, want program=ping", r.Labels)
			}
		}
	}
	for _, want := range []string{"analyze", "autopriv", "chronopriv", "rosa.query"} {
		if names[want] == 0 {
			t.Errorf("no %q span in %s (got %v)", want, jsonl, names)
		}
	}
	for _, r := range recs {
		if r.Type == "span" && r.Name == "rosa.query" && r.Parent != rootID {
			t.Errorf("rosa.query span parent = %d, want root %d", r.Parent, rootID)
		}
	}
	if last := recs[len(recs)-1]; last.Type != "metrics" {
		t.Errorf("last JSONL record type = %q, want metrics", last.Type)
	}

	// Prometheus text round-trip: every line is a comment or a
	// name{labels} value sample, and the advertised TYPE families all
	// have at least one sample.
	ptext, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	families := make(map[string]bool)
	samples := make(map[string]int)
	for i, line := range strings.Split(strings.TrimSpace(string(ptext)), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("%s line %d: malformed TYPE comment %q", prom, i+1, line)
			}
			families[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if base, _, hasLabels := strings.Cut(name, "{"); hasLabels && !strings.HasSuffix(name, "}") {
			t.Errorf("%s line %d: unterminated labels in %q", prom, i+1, line)
		} else if hasLabels {
			name = base
		}
		if !ok || name == "" {
			t.Errorf("%s line %d: malformed sample %q", prom, i+1, line)
			continue
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("%s line %d: non-numeric value %q", prom, i+1, line)
		}
		samples[strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")]++
		samples[name]++
	}
	for fam := range families {
		if samples[fam] == 0 {
			t.Errorf("TYPE %s advertised but no samples in %s", fam, prom)
		}
	}
	for _, want := range []string{"core_analyses_total", "rosa_queries_total", "rosa_query_elapsed_ns"} {
		if !families[want] {
			t.Errorf("metric family %q missing from %s (got %v)", want, prom, families)
		}
	}
}

// TestRunTraceOut: the pipeline-level trace export must combine all three
// sources — the span tree, the search flight recorder's per-worker instants,
// and the interp hot-block counter track — in valid Trace Event JSON.
func TestRunTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out, code := capture(t, func() int {
		return run([]string{"-program", "ping", "-trace-out", path})
	})
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("-trace-out did not produce valid JSON: %v", err)
	}
	phases := map[string]int{}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		phases[ev.Ph]++
		names[ev.Name] = true
	}
	for _, want := range []string{"analyze", "autopriv", "chronopriv", "rosa.query"} {
		if !names[want] {
			t.Errorf("trace missing the %q span", want)
		}
	}
	if phases["i"] == 0 || !names["level_start"] {
		t.Errorf("trace missing recorder instants: phases %v", phases)
	}
	if phases["C"] == 0 || !names["hot blocks ping"] {
		t.Errorf("trace missing the hot-block counter track: phases %v", phases)
	}
	// The counter samples carry per-block instruction counts as series.
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "C" && len(ev.Args) == 0 {
			t.Errorf("counter sample %q has no series", ev.Name)
		}
	}
}

// TestRunJSON pins the -json contract: stdout is exactly the
// api.AnalyzeResponse wire form, nothing else — a script can pipe it
// straight into a parser, and the bytes match what privanalyzerd returns
// for the same program (the serving determinism tests hold the other end).
func TestRunJSON(t *testing.T) {
	out, code := capture(t, func() int { return run([]string{"-program", "su", "-json"}) })
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	var resp struct {
		APIVersion string `json:"api_version"`
		Program    string `json:"program"`
		Phases     []struct {
			Name    string `json:"name"`
			Queries []struct {
				Attack  int    `json:"attack"`
				Verdict string `json:"verdict"`
				States  int    `json:"states"`
			} `json:"queries"`
		} `json:"phases"`
	}
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("-json output is not one JSON document: %v\n%s", err, out)
	}
	if resp.APIVersion != "v1" || resp.Program != "su" {
		t.Errorf("header = %+v", resp)
	}
	if len(resp.Phases) == 0 {
		t.Fatal("no phases in -json output")
	}
	for _, ph := range resp.Phases {
		for _, q := range ph.Queries {
			if q.Attack < 1 || q.Attack > 4 {
				t.Errorf("phase %s: attack %d out of range", ph.Name, q.Attack)
			}
			switch q.Verdict {
			case "safe", "vulnerable", "unknown":
			default:
				t.Errorf("phase %s: verdict %q", ph.Name, q.Verdict)
			}
		}
	}
	if strings.Contains(out, "TABLE") {
		t.Error("-json output still contains the human tables")
	}
}
