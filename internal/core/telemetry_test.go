package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"privanalyzer/internal/programs"
	"privanalyzer/internal/telemetry"
)

// jsonlRecord is the wire form of one telemetry JSONL line (span or the
// trailing metrics record).
type jsonlRecord struct {
	Type     string            `json:"type"`
	ID       int64             `json:"id"`
	Parent   int64             `json:"parent"`
	Name     string            `json:"name"`
	Labels   map[string]string `json:"labels"`
	Running  bool              `json:"running"`
	Counters map[string]int64  `json:"counters"`
}

// TestAnalyzeSpanHierarchy runs the pipeline, its attack columns concurrent
// (AnalyzeAll), with a telemetry registry in the context and verifies the
// exported span tree: one root "analyze" span, the "autopriv" and
// "chronopriv" stage spans under it, and one "rosa.query" span per query
// carrying the (program, phase, attack, verdict) labels.
func TestAnalyzeSpanHierarchy(t *testing.T) {
	reg := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), reg)
	all, err := AnalyzeAll(ctx, []string{"ping"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := all[0]
	queries := 0
	for _, pr := range a.Phases {
		for _, v := range pr.Verdicts {
			if v != 0 {
				queries++
			}
		}
	}

	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var recs []jsonlRecord
	for i, line := range lines {
		var r jsonlRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		recs = append(recs, r)
	}

	var root jsonlRecord
	byName := make(map[string][]jsonlRecord)
	for _, r := range recs {
		if r.Type != "span" {
			continue
		}
		if r.Running {
			t.Errorf("span %s (id %d) still running after analysis", r.Name, r.ID)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	if n := len(byName["analyze"]); n != 1 {
		t.Fatalf("got %d analyze root spans, want 1", n)
	}
	root = byName["analyze"][0]
	if root.Parent != 0 {
		t.Errorf("root span has parent %d, want none", root.Parent)
	}
	if root.Labels["program"] != "ping" {
		t.Errorf("root labels = %v, want program=ping", root.Labels)
	}
	for _, stage := range []string{"autopriv", "chronopriv"} {
		ss := byName[stage]
		if len(ss) != 1 {
			t.Fatalf("got %d %s spans, want 1", len(ss), stage)
		}
		if ss[0].Parent != root.ID {
			t.Errorf("%s span parent = %d, want root %d", stage, ss[0].Parent, root.ID)
		}
		if ss[0].Labels["program"] != "ping" {
			t.Errorf("%s labels = %v, want program=ping", stage, ss[0].Labels)
		}
	}
	qs := byName["rosa.query"]
	if len(qs) != queries {
		t.Errorf("got %d rosa.query spans, want %d (one per query)", len(qs), queries)
	}
	for _, q := range qs {
		if q.Parent != root.ID {
			t.Errorf("query span parent = %d, want root %d", q.Parent, root.ID)
		}
		for _, key := range []string{"program", "phase", "attack", "verdict"} {
			if q.Labels[key] == "" {
				t.Errorf("query span labels = %v, missing %q", q.Labels, key)
			}
		}
	}

	last := recs[len(recs)-1]
	if last.Type != "metrics" {
		t.Fatalf("last record type = %q, want the metrics summary", last.Type)
	}
	if last.Counters["core_analyses_total"] != 1 {
		t.Errorf("core_analyses_total = %d, want 1", last.Counters["core_analyses_total"])
	}
	if got := last.Counters["rosa_queries_total"]; got != int64(queries) {
		t.Errorf("rosa_queries_total = %d, want %d", got, queries)
	}
}

// TestAnalyzeAllTraceTracksNest exports the trace of AnalyzeAll over all
// seven programs — concurrent programs, concurrent attack columns — and
// requires every span to be present as one complete event, and the complete
// events of each track to nest: any two are disjoint or one contains the
// other, which is how Perfetto draws a track.
func TestAnalyzeAllTraceTracksNest(t *testing.T) {
	reg := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), reg)
	if _, err := AnalyzeAll(ctx, programs.Names(), Options{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteTrace(&buf, reg, nil, nil); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
			Args struct {
				SpanID int64 `json:"span_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	type interval struct{ from, to float64 }
	byTID := map[int][]interval{}
	ids := map[int64]bool{}
	events := 0
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			byTID[ev.TID] = append(byTID[ev.TID], interval{ev.TS, ev.TS + ev.Dur})
			ids[ev.Args.SpanID] = true
			events++
		}
	}
	if spans := len(reg.Spans()); events != spans || len(ids) != spans {
		t.Errorf("%d span events for %d distinct spans in the trace; the registry holds %d", events, len(ids), spans)
	}
	// Timestamps are float microseconds; allow a nanosecond of rounding.
	const eps = 1e-3
	inside := func(a, b interval) bool { return b.from-eps <= a.from && a.to <= b.to+eps }
	for tid, evs := range byTID {
		for i, a := range evs {
			for _, b := range evs[i+1:] {
				disjoint := a.to <= b.from+eps || b.to <= a.from+eps
				if !disjoint && !inside(a, b) && !inside(b, a) {
					t.Errorf("tid %d: spans [%.3f, %.3f] and [%.3f, %.3f] overlap without nesting",
						tid, a.from, a.to, b.from, b.to)
				}
			}
		}
	}
	if len(byTID) < 2 {
		t.Errorf("all spans on %d track(s); concurrent programs need more", len(byTID))
	}
}
