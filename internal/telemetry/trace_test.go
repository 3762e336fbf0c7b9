package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// decodeTrace parses WriteTrace output through the generic JSON layer — the
// same path a trace viewer takes — rather than our own wire structs.
func decodeTrace(t *testing.T, data []byte) (events []map[string]any, unit string) {
	t.Helper()
	var top map[string]any
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	raw, ok := top["traceEvents"].([]any)
	if !ok {
		t.Fatalf("no traceEvents array in %v", top)
	}
	for _, e := range raw {
		ev, ok := e.(map[string]any)
		if !ok {
			t.Fatalf("traceEvents entry is %T, want object", e)
		}
		events = append(events, ev)
	}
	unit, _ = top["displayTimeUnit"].(string)
	return events, unit
}

// TestWriteTraceJSON is the format contract for the combined export: spans as
// complete events, counter samples, no instant events, and thread metadata
// sorted first.
func TestWriteTraceJSON(t *testing.T) {
	reg := New()
	ctx := NewContext(context.Background(), reg)
	sp, _ := StartSpan(ctx, "analyze", "program", "thttpd")
	sp.End()

	now := time.Now()
	counters := []CounterTrack{{
		Name: "hot blocks",
		Samples: []CounterSample{
			{T: now, Values: map[string]int64{"@main:entry": 0}},
			{T: now.Add(time.Millisecond), Values: map[string]int64{"@main:entry": 100}},
		},
	}}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, reg, counters); err != nil {
		t.Fatal(err)
	}
	events, unit := decodeTrace(t, buf.Bytes())
	if unit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", unit)
	}

	byPhase := map[string][]map[string]any{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		byPhase[ph] = append(byPhase[ph], ev)
		if ts, ok := ev["ts"].(float64); !ok || ts < 0 {
			t.Errorf("event %v has no non-negative ts", ev)
		}
	}
	if len(byPhase["X"]) != 1 || byPhase["X"][0]["name"] != "analyze" {
		t.Errorf("span events = %v, want one analyze", byPhase["X"])
	}
	if len(byPhase["C"]) != 2 {
		t.Errorf("counter events = %d, want 2", len(byPhase["C"]))
	}
	if len(byPhase["i"]) != 0 {
		t.Errorf("instant events = %v, want none", byPhase["i"])
	}

	// Metadata first (viewers apply track names before content): the
	// process and the one span lane.
	for i, ev := range events {
		if ev["ph"] == "M" && i > 0 && events[i-1]["ph"] != "M" {
			t.Error("metadata events not sorted before content events")
		}
	}
	names := map[string]bool{}
	for _, ev := range byPhase["M"] {
		if args, ok := ev["args"].(map[string]any); ok {
			if n, ok := args["name"].(string); ok {
				names[n] = true
			}
		}
	}
	if len(names) != 2 || !names["privanalyzer"] || !names["pipeline (spans)"] {
		t.Errorf("thread/process names %v, want privanalyzer and pipeline (spans)", names)
	}
}

// TestWriteTraceEmpty: a capture with no registry and no counters still
// renders as a loadable (if boring) trace.
func TestWriteTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	events, _ := decodeTrace(t, buf.Bytes())
	for _, ev := range events {
		if ev["ph"] != "M" {
			t.Errorf("empty capture produced content event %v", ev)
		}
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Error("missing traceEvents key")
	}
}

// TestWriteTraceLanes: two concurrent children of one span overlap without
// nesting, so they cannot share a track. The first stays on its parent's
// track (tid 0), and the second moves to a lane of its own.
func TestWriteTraceLanes(t *testing.T) {
	reg := New()
	ctx := NewContext(context.Background(), reg)
	root, rctx := StartSpan(ctx, "analyze")
	first, _ := StartSpan(rctx, "rosa.query", "attack", "1")
	time.Sleep(time.Millisecond)
	second, _ := StartSpan(rctx, "rosa.query", "attack", "2")
	time.Sleep(time.Millisecond)
	first.End()
	time.Sleep(time.Millisecond)
	second.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteTrace(&buf, reg, nil); err != nil {
		t.Fatal(err)
	}
	events, _ := decodeTrace(t, buf.Bytes())
	tids := map[string]float64{}
	for _, ev := range events {
		if ev["ph"] != "X" {
			continue
		}
		name := ev["name"].(string)
		if a, ok := ev["args"].(map[string]any)["attack"].(string); ok {
			name += " " + a
		}
		tids[name], _ = ev["tid"].(float64)
	}
	want := map[string]float64{"analyze": 0, "rosa.query 1": 0, "rosa.query 2": 1}
	for name, tid := range want {
		if got, ok := tids[name]; !ok || got != tid {
			t.Errorf("%s on tid %v (present %v), want %v", name, got, ok, tid)
		}
	}
}
